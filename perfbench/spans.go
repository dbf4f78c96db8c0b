package main

import (
	"fmt"
	"time"
)

// spanLog records the caller's benchmark-side spans in memory: a span per
// call into a program layer, nested under the per-operation span and the
// whole-window root. Span times are process CPU times, as the end-to-end
// times are (see measurement). A nil *spanLog records nothing, so untraced
// measurement pays one nil check per call.
type spanLog struct {
	base  time.Duration
	spans []spanRec
	open  []int32
}

type spanRec struct {
	name       string
	start, end time.Duration
	parent     int32
}

func newSpanLog() *spanLog { return &spanLog{base: processCPU()} }

// start opens a span nested in the innermost open one and returns its
// handle for end.
func (l *spanLog) start(name string) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, spanRec{name: name, start: processCPU() - l.base, end: -1, parent: parent})
	i := int32(len(l.spans) - 1)
	l.open = append(l.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (l *spanLog) end(i int32) {
	if l == nil {
		return
	}
	l.spans[i].end = processCPU() - l.base
	if n := len(l.open); n > 0 && l.open[n-1] == i {
		l.open = l.open[:n-1]
	}
}

// foldSpans turns a span log into self time per span name: a span's
// duration minus the part its children cover. It rejects a log whose spans
// are left open, end before they start, or whose children leave their
// parent's interval or overlap each other, since any of those would make
// the self times fail to add up to the time measured.
func foldSpans(l *spanLog) (map[string]time.Duration, error) {
	self := map[string]time.Duration{}
	if len(l.open) != 0 {
		return nil, fmt.Errorf("%d spans left open", len(l.open))
	}
	lastChildEnd := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		if s.end < s.start {
			return nil, fmt.Errorf("span %s ends before it starts", s.name)
		}
		d := s.end - s.start
		self[s.name] += d
		lastChildEnd[i] = s.start
		if s.parent < 0 {
			continue
		}
		p := l.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return nil, fmt.Errorf("span %s leaves its parent %s", s.name, p.name)
		}
		if s.start < lastChildEnd[s.parent] {
			return nil, fmt.Errorf("span %s overlaps a sibling under %s", s.name, p.name)
		}
		lastChildEnd[s.parent] = s.end
		self[p.name] -= d
	}
	return self, nil
}
