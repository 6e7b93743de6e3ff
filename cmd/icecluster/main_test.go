package main

import (
	"bufio"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildLauncher compiles icecluster into a fresh temporary directory, so
// every process running that executable belongs to this test.
func buildLauncher(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "icecluster")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestLaunchGathers runs a small two-rank cluster end to end.
func TestLaunchGathers(t *testing.T) {
	bin := buildLauncher(t)
	out, err := exec.Command(bin, "-np", "2", "-tuples", "2000", "-dims", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("icecluster: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "gathered") {
		t.Fatalf("no gathered line:\n%s", out)
	}
}

// TestSIGTERMReapsRanks: a SIGTERM to the launcher kills and reaps every
// rank — the launcher returns promptly and no process of the binary
// outlives it.
func TestSIGTERMReapsRanks(t *testing.T) {
	if _, err := os.Stat("/proc/self/exe"); err != nil {
		t.Skip("needs /proc to find surviving ranks")
	}
	bin := buildLauncher(t)
	cmd := exec.Command(bin, "-np", "2", "-tuples", "200000", "-dims", "8")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { killRunning(bin) })
	lines := bufio.NewReader(stdout)
	first, err := lines.ReadString('\n')
	if err != nil || !strings.HasPrefix(first, "launching") {
		t.Fatalf("first line %q, %v", first, err)
	}
	go io.Copy(io.Discard, lines)
	// Signal once both ranks run, so the test covers orphaned ranks rather
	// than a launcher killed before it forked.
	for deadline := time.Now().Add(5 * time.Second); len(running(bin)) < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ranks never started: pids %v", running(bin))
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		t.Fatal("launcher still running 5s after SIGTERM")
	}
	if pids := running(bin); len(pids) > 0 {
		t.Fatalf("ranks outlived the launcher: pids %v", pids)
	}
}

// running lists the pids whose executable is bin.
func running(bin string) []string {
	var pids []string
	exes, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, exe := range exes {
		if target, err := os.Readlink(exe); err == nil && strings.TrimSuffix(target, " (deleted)") == bin {
			pids = append(pids, filepath.Base(filepath.Dir(exe)))
		}
	}
	return pids
}

// killRunning kills whatever a failed test left behind.
func killRunning(bin string) {
	for _, pid := range running(bin) {
		if n, err := strconv.Atoi(pid); err == nil {
			syscall.Kill(n, syscall.SIGKILL)
		}
	}
}
