package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory. The spans are recorded
// by the benchmark around its calls into each layer's public functions, so
// the program under test is unchanged by tracing. A nil *tracer records
// nothing, which is how the untraced phases run.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []*span
}

// span is one timed call. Spans of one request share req; parent is the
// enclosing span's id (0 at the top).
type span struct {
	id, parent, req int64
	client          int
	name            string
	start, end      time.Duration // since the tracer's epoch
	args            map[string]float64

	tr *tracer
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a top-level span. It returns nil on a nil tracer; every
// *span method accepts a nil receiver.
func (t *tracer) start(name string, req int64, client int) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	s := &span{id: t.next, req: req, client: client, name: name, tr: t}
	t.mu.Unlock()
	s.start = time.Since(t.epoch)
	return s
}

// child opens a span nested in s, sharing its request and client.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	c := s.tr.start(name, s.req, s.client)
	c.parent = s.id
	return c
}

// set records a numeric attribute of the span.
func (s *span) set(key string, v float64) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]float64)
	}
	s.args[key] = v
}

// finish closes the span and keeps it.
func (s *span) finish() {
	if s == nil {
		return
	}
	s.end = time.Since(s.tr.epoch)
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s)
	s.tr.mu.Unlock()
}

func (s *span) dur() time.Duration { return s.end - s.start }

// finished returns the closed spans ordered by start time.
func (t *tracer) finished() []*span {
	t.mu.Lock()
	out := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].id < out[j].id
	})
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []*span) map[int64]time.Duration {
	kids := make(map[int64][]*span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		covered := time.Duration(0)
		cur := s.start // children are in start order; cur is the covered frontier
		for _, k := range kids[s.id] {
			from, to := max(k.start, cur), min(k.end, s.end)
			if to > from {
				covered += to - from
				cur = to
			}
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// spanAgg summarizes the spans of one name.
type spanAgg struct {
	count int
	total time.Duration
	durs  []float64 // milliseconds
	args  map[string]float64
}

// aggregate groups spans by name, summing durations and attributes.
func aggregate(spans []*span) map[string]*spanAgg {
	out := make(map[string]*spanAgg)
	for _, s := range spans {
		a := out[s.name]
		if a == nil {
			a = &spanAgg{args: make(map[string]float64)}
			out[s.name] = a
		}
		a.count++
		a.total += s.dur()
		a.durs = append(a.durs, ms(s.dur()))
		for k, v := range s.args {
			a.args[k] += v
		}
	}
	return out
}

// traceEvent is one Chrome trace-event record: the format wosim -timeline
// writes, here with ts and dur in host microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, one event per
// line, each carrying its request id, parent and self time.
func writeChrome(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	w.WriteString("{\"traceEvents\":[\n")
	for i, s := range spans {
		args := map[string]any{"id": s.id, "req": s.req, "parent": s.parent, "self_us": us(self[s.id])}
		for k, v := range s.args {
			args[k] = v
		}
		line, err := json.Marshal(traceEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur()), Tid: s.client, Args: args,
		})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
		if i < len(spans)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
