package main

import (
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Layer "" marks the
// benchmark's own structure (the repetition root and its stages), whose
// self time is not attributed to any layer of the program.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"`
	Parent int    `json:"parent"` // index into the tracer's spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Agg marks an aggregated child: the summed duration of many calls
	// too frequent to record one by one (mcsim's per-tick calls). It has
	// a duration but no interval of its own.
	Agg bool `json:"agg,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for one traced repetition. A nil *tracer
// is the untraced mode: every method is a no-op except that call still
// runs its function.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
}

// call runs f inside a span named name of layer under parent.
func (t *tracer) call(parent int, name, layer string, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.begin(name, layer, parent)
	f()
	t.end(id)
}

// aggregate records d as the summed time of many calls into layer made
// from inside the span parent.
func (t *tracer) aggregate(parent int, name, layer string, d time.Duration) {
	if t == nil {
		return
	}
	s := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Start: s, End: s + int64(d), Agg: true})
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once), minus the durations of its aggregated children.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		var covered int64
		var iv [][2]int64
		for _, k := range kids[i] {
			c := &spans[k]
			if c.Agg {
				covered += c.dur()
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var curLo, curHi int64 = 0, -1
		for _, v := range iv {
			if v[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v[0], v[1]
			} else if v[1] > curHi {
				curHi = v[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerSelf sums self time per layer (layer "" excluded), in seconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i := range spans {
		if l := spans[i].Layer; l != "" {
			out[l] += float64(self[i]) / 1e9
		}
	}
	return out
}

// unattributed returns 1 - (sum of layer self time) / (root duration):
// the share of the repetition's wall time that no layer span explains.
// spans must hold exactly one root.
func unattributed(spans []span) float64 {
	var root int64
	for i := range spans {
		if spans[i].Parent < 0 {
			root = spans[i].dur()
		}
	}
	if root <= 0 {
		return 0
	}
	var sum float64
	for _, v := range layerSelf(spans) {
		sum += v
	}
	return 1 - sum*1e9/float64(root)
}

// spanTotal sums the durations (not self times) of spans named name, in
// seconds.
func spanTotal(spans []span, name string) float64 {
	var d int64
	for i := range spans {
		if spans[i].Name == name {
			d += spans[i].dur()
		}
	}
	return float64(d) / 1e9
}
