package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateFlags: incompatible flag combinations fail up front with a
// usage message naming the fix, and every supported combination passes.
func TestValidateFlags(t *testing.T) {
	ok := func(o options) options { // fill required defaults
		if o.minsup == 0 {
			o.minsup = 1
		}
		if o.policy == "" {
			o.policy = "lru"
		}
		return o
	}
	valid := []options{
		{input: "sales.csv"},
		{synthetic: 50000, algo: "PT", parallel: true},
		{input: "sales.csv", waldir: "/tmp/wal", policy: "adaptive"},
		{input: "sales.csv", segdir: "/tmp/seg"},
		{segdir: "/tmp/seg", memlimit: 1 << 20, algo: "BPP"},
		{input: "sales.csv", httpA: ":8080"},
		{input: "sales.csv", httpA: ":8080", batchWindow: 2 * time.Millisecond},
		{input: "sales.csv", waldir: "/tmp/wal", httpA: ":8080"},
		{segdir: "/tmp/seg", httpA: ":8080"},
		{httpA: ":8080", policy: "adaptive", input: "sales.csv"},
	}
	for i, o := range valid {
		if err := validateFlags(ok(o)); err != nil {
			t.Errorf("valid combo %d rejected: %v (%+v)", i, err, o)
		}
	}

	invalid := []struct {
		o    options
		want string // substring of the usage message
	}{
		{options{memlimit: 1 << 20}, "-segdir"},
		{options{policy: "adaptive"}, "serving mode"},
		{options{segdir: "/tmp/seg", httpA: ":8080", policy: "adaptive"}, "cold tier"},
		{options{waldir: "/tmp/wal", segdir: "/tmp/seg"}, "one"},
		{options{batchWindow: time.Millisecond}, "-http"},
		{options{httpA: ":8080", batchWindow: -time.Second}, ">= 0"},
		{options{httpA: ":8080", segdir: "/tmp/seg", memlimit: 1 << 20}, "batch run"},
		{options{waldir: "/tmp/wal", algo: "PT"}, "-algo"},
		{options{httpA: ":8080", algo: "PT"}, "-algo"},
		{options{waldir: "/tmp/wal", parallel: true}, "-parallel"},
		{options{input: "a.csv", synthetic: 100}, "not both"},
		{options{input: "a.csv", minsup: -1}, "-minsup"},
	}
	for i, tc := range invalid {
		o := tc.o
		if o.minsup == 0 {
			o.minsup = 1
		}
		err := validateFlags(o)
		if err == nil {
			t.Errorf("invalid combo %d accepted: %+v", i, tc.o)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("combo %d: message %q does not mention %q", i, err, tc.want)
		}
	}
}
