package exp

import "testing"

// TestAdaptive_BeatsLRUUnderZipf: the adaptive experiment's headline
// claims, checked live at a small scale — at every swept budget the
// benefit-per-byte policy wins hit rate over LRU on the identical Zipf
// stream, and at the tightest budget (where admission control matters
// most) it also scans fewer cells and rows to answer it. Both are exact
// for the fixed seed; the wall-clock series is printed, not gated. The
// experiment's own in-run equivalence oracle (sampled answers
// byte-identical across policies) and budget invariants are enforced
// inside Adaptive itself.
func TestAdaptive_BeatsLRUUnderZipf(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive experiment: replays 3,600 queries")
	}
	tbl, err := Adaptive(Config{Tuples: 6000, CacheMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	lruHit := seriesByName(t, tbl, "lru-hit%")
	adaHit := seriesByName(t, tbl, "adaptive-hit%")
	lruScan := seriesByName(t, tbl, "lru-scan")
	adaScan := seriesByName(t, tbl, "adaptive-scan")
	for i, p := range lruHit.Points {
		if adaHit.Points[i].Y <= p.Y {
			t.Errorf("budget %gKB: adaptive hit rate %.1f%% not above LRU %.1f%%",
				p.X, adaHit.Points[i].Y, p.Y)
		}
	}
	if adaScan.Points[0].Y >= lruScan.Points[0].Y {
		t.Errorf("tight budget %gKB: adaptive scanned %.0f cells+rows, not below LRU's %.0f",
			lruScan.Points[0].X, adaScan.Points[0].Y, lruScan.Points[0].Y)
	}
	t.Log("\n" + tbl.Format())
}
