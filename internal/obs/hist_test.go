package obs

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestHistBucketAssignment pins the log-bucket layout: bucket 0 holds
// exact zeros, bucket i holds [2^(i-1), 2^i), the last bucket absorbs
// everything at or above 2^30, and negatives clamp to zero.
func TestHistBucketAssignment(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-7, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{1 << 20, 21},
		{1<<30 - 1, 30},
		{1 << 30, HistBuckets - 1},
		{1 << 62, HistBuckets - 1},
	}
	for _, c := range cases {
		var h Hist
		h.Observe(c.v)
		if h.Buckets[c.bucket] != 1 {
			t.Errorf("Observe(%d): buckets %v, want count in bucket %d", c.v, h.Buckets, c.bucket)
		}
		if h.Count != 1 {
			t.Errorf("Observe(%d): count %d", c.v, h.Count)
		}
	}
	var h Hist
	h.Observe(-5)
	if h.Sum != 0 {
		t.Errorf("negative observation leaked into sum: %d", h.Sum)
	}
}

// TestHistMergeMatchesSerial is the randomized merge property: values
// scattered across k histogram copies and merged in arbitrary order must
// be field-identical to one serial histogram.
func TestHistMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		parts := make([]Hist, k)
		var serial Hist
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			var v int64
			switch rng.Intn(4) {
			case 0:
				v = 0
			case 1:
				v = rng.Int63n(64)
			case 2:
				v = rng.Int63n(1 << 20)
			default:
				v = rng.Int63() // exercises the overflow bucket
			}
			serial.Observe(v)
			parts[rng.Intn(k)].Observe(v)
		}
		var merged Hist
		// Merge in a shuffled order — addition must make order irrelevant.
		for _, i := range rng.Perm(k) {
			merged.Merge(&parts[i])
		}
		if merged != serial {
			t.Fatalf("trial %d: merged fold differs from serial:\nmerged: %+v\nserial: %+v", trial, merged, serial)
		}
	}
}

// TestHistQuantile checks the interpolated quantile estimator: empty
// histogram yields 0, estimates are monotone in q, and a point mass
// lands inside its own bucket's bounds.
func TestHistQuantile(t *testing.T) {
	var empty Hist
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	var h Hist
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	last := -1.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < last {
			t.Errorf("quantile not monotone: q=%v -> %v after %v", q, v, last)
		}
		last = v
	}
	if v := h.Quantile(1); v < 512 || v > 1023 {
		t.Errorf("max quantile %v outside the top occupied bucket [512,1023]", v)
	}
	// A point mass at 100 (bucket [64,127]) must estimate within bounds.
	var pm Hist
	for i := 0; i < 10; i++ {
		pm.Observe(100)
	}
	if v := pm.Quantile(0.5); v < 64 || v > 127 {
		t.Errorf("point-mass median %v outside its bucket [64,127]", v)
	}
}

// TestHistSnapshotRoundTrip pins Snapshot/Hist as inverses, trailing-zero
// trimming, and clone independence.
func TestHistSnapshotRoundTrip(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 5, 5, 300} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if len(s.Buckets) != 10 { // 300 lands in bucket 9 ([256,511])
		t.Errorf("trailing zeros not trimmed: %d buckets", len(s.Buckets))
	}
	back := s.Hist()
	if back != h {
		t.Errorf("round trip lost data:\ngot:  %+v\nwant: %+v", back, h)
	}
	s.Buckets[0] = 99
	if h.Buckets[0] == 99 {
		t.Error("snapshot shares bucket backing with the histogram")
	}
	var zero Hist
	if s := zero.Snapshot(); s.Buckets != nil || s.Count != 0 {
		t.Errorf("empty snapshot not empty: %+v", s)
	}
	zs := zero.Snapshot()
	if !reflect.DeepEqual(zs.Hist(), zero) {
		t.Error("empty round trip differs")
	}
}
