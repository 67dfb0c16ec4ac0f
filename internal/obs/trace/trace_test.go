package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestSpanNestingAndContextPropagation(t *testing.T) {
	tr := New(64)
	ctx, root := tr.Root(context.Background(), "request", Str("id", "r1"))
	if root == nil {
		t.Fatal("enabled tracer returned nil root span")
	}
	if FromContext(ctx) != root {
		t.Fatal("ctx does not carry the root span")
	}
	ctx2, child := Start(ctx, "queue_wait")
	if child == nil {
		t.Fatal("Start under a root span returned nil")
	}
	if FromContext(ctx2) != child {
		t.Fatal("child ctx does not carry the child span")
	}
	_, grand := Start(ctx2, "execute", Bool("hit", false))
	grand.End()
	child.End()
	root.End()

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Spans end innermost-first.
	if evs[0].Name != "execute" || evs[1].Name != "queue_wait" || evs[2].Name != "request" {
		t.Fatalf("unexpected order: %s, %s, %s", evs[0].Name, evs[1].Name, evs[2].Name)
	}
	if evs[1].Parent != root.ID() {
		t.Fatalf("queue_wait parent = %d, want root %d", evs[1].Parent, root.ID())
	}
	if evs[0].Parent != evs[1].ID {
		t.Fatalf("execute parent = %d, want queue_wait %d", evs[0].Parent, evs[0].ID)
	}
	for _, ev := range evs {
		if ev.Track != root.ID() {
			t.Fatalf("span %q on track %d, want root track %d", ev.Name, ev.Track, root.ID())
		}
	}
}

func TestDisabledAndNilSafety(t *testing.T) {
	var nilT *Tracer
	if nilT.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	ctx, sp := nilT.Root(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer handed out a span")
	}
	sp.SetAttr(Str("k", "v")) // must not panic
	sp.End()
	if _, sp2 := Start(ctx, "child"); sp2 != nil {
		t.Fatal("Start without a span in ctx handed out a span")
	}
	nilT.Emit(Event{Phase: PhaseSpan})
	if nilT.Len() != 0 || nilT.Dropped() != 0 || nilT.Events() != nil {
		t.Fatal("nil tracer holds events")
	}

	tr := New(8)
	tr.SetEnabled(false)
	if _, sp := tr.Root(context.Background(), "x"); sp != nil {
		t.Fatal("disabled tracer handed out a span")
	}
	tr.Emit(Event{Phase: PhaseSpan, Name: "dropped"})
	if tr.Len() != 0 {
		t.Fatal("disabled tracer recorded an event")
	}
}

// TestRingEvictionOrder pins the bounded ring's contract before, at and
// after the ring stops growing: after every emission exactly the newest
// min(emitted, capacity) events are resident, oldest first with
// contiguous Seq values, and Dropped counts the rest.
func TestRingEvictionOrder(t *testing.T) {
	for _, capacity := range []int{1, 5, 8, 13} {
		for _, emits := range []int{capacity - 1, capacity, capacity + 1, 3*capacity + 2} {
			t.Run(fmt.Sprintf("cap%d/emits%d", capacity, emits), func(t *testing.T) {
				tr := New(capacity)
				for i := 0; i < emits; i++ {
					tr.Emit(Event{Phase: PhaseInstant, Name: "e", TS: int64(i)})
					checkRing(t, tr, capacity, i+1)
				}
				checkRing(t, tr, capacity, emits)
			})
		}
	}
}

// checkRing asserts the ring holds the newest min(emitted, capacity) of
// emitted events numbered by TS 0..emitted-1.
func checkRing(t *testing.T, tr *Tracer, capacity, emitted int) {
	t.Helper()
	resident := min(emitted, capacity)
	if got := tr.Len(); got != resident {
		t.Fatalf("after %d emits: Len = %d, want %d", emitted, got, resident)
	}
	if got := tr.Dropped(); got != uint64(emitted-resident) {
		t.Fatalf("after %d emits: Dropped = %d, want %d", emitted, got, emitted-resident)
	}
	evs := tr.Events()
	if len(evs) != resident {
		t.Fatalf("after %d emits: %d events, want %d", emitted, len(evs), resident)
	}
	for i, ev := range evs {
		if want := int64(emitted - resident + i); ev.TS != want {
			t.Fatalf("after %d emits: event %d has TS %d, want %d (eviction order broken)", emitted, i, ev.TS, want)
		}
		if ev.Seq != evs[0].Seq+uint64(i) {
			t.Fatalf("after %d emits: event %d has Seq %d, want %d (not contiguous)", emitted, i, ev.Seq, evs[0].Seq+uint64(i))
		}
	}
}

// TestRingAllocatesWhatItRecords pins on-demand growth: a tracer bounded
// at 1<<16 events that records three costs a few hundred bytes of ring,
// not the ~6.8 MB its bound would preallocate.
func TestRingAllocatesWhatItRecords(t *testing.T) {
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		tr := New(1 << 16)
		for j := 0; j < 3; j++ {
			tr.Emit(Event{Phase: PhaseInstant, Name: "e"})
		}
		if tr.Len() != 3 {
			t.Fatalf("Len = %d, want 3", tr.Len())
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<10 {
		t.Fatalf("a 3-event tracer allocated %d B, want < 16 KiB", per)
	}
}

// TestRingEvictionOrderConcurrent hammers the ring from many goroutines
// (run under -race) and asserts the order invariant that survives
// concurrency: resident events are in strictly increasing Seq order,
// the ring is exactly full, and dropped+resident equals emissions.
func TestRingEvictionOrderConcurrent(t *testing.T) {
	const capacity, writers, perWriter = 64, 8, 200
	tr := New(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Emit(Event{Phase: PhaseInstant, Name: "e", Track: uint64(w)})
			}
		}(w)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("resident = %d, want full ring %d", len(evs), capacity)
	}
	if got := tr.Dropped(); got != writers*perWriter-capacity {
		t.Fatalf("dropped = %d, want %d", got, writers*perWriter-capacity)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of emission order: seq[%d]=%d <= seq[%d]=%d",
				i, evs[i].Seq, i-1, evs[i-1].Seq)
		}
	}
	// The survivors must be the newest emissions: every resident Seq is
	// greater than the count of dropped events' minimum possible... the
	// strongest portable claim is that the oldest survivor's Seq exceeds
	// the number of evicted emissions could allow; with a single mutex
	// the survivors are exactly the last `capacity` Seq values assigned.
	if evs[len(evs)-1].Seq-evs[0].Seq != capacity-1 {
		t.Fatalf("survivors are not contiguous: first seq %d, last %d, capacity %d",
			evs[0].Seq, evs[len(evs)-1].Seq, capacity)
	}
}

// TestDisarmFreezesRing pins the barrier lapserved relies on when it
// stores a finished request's tracer: once SetEnabled(false) returns, no
// concurrent writer can still add an event, even one that passed the
// Enabled gate before the call.
func TestDisarmFreezesRing(t *testing.T) {
	const capacity, writers, perWriter = 64, 4, 2000
	tr := New(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Emit(Event{Phase: PhaseInstant, Name: "e"})
			}
		}()
	}
	for tr.Len() < capacity/2 {
		runtime.Gosched()
	}
	tr.SetEnabled(false)
	frozen, dropped := tr.Events(), tr.Dropped()
	wg.Wait()
	after := tr.Events()
	if len(after) != len(frozen) || tr.Dropped() != dropped {
		t.Fatalf("ring changed after disarm: %d events, %d dropped → %d events, %d dropped",
			len(frozen), dropped, len(after), tr.Dropped())
	}
	for i := range after {
		if after[i].Seq != frozen[i].Seq {
			t.Fatalf("event %d changed after disarm: seq %d → %d", i, frozen[i].Seq, after[i].Seq)
		}
	}
}

func TestChromeExportShape(t *testing.T) {
	tr := New(64)
	tr.NameTrack(PidSim, 7, "LAP")
	tr.Emit(Event{Phase: PhaseSpan, Name: "run", Pid: PidSim, Track: 7, TS: 0, Dur: 100, ID: 7})
	tr.Emit(Event{Phase: PhaseSpan, Name: "warmup", Pid: PidSim, Track: 7, TS: 0, Dur: 10, ID: 8, Parent: 7})
	tr.Emit(Event{Phase: PhaseCounter, Name: "misses", Pid: PidSim, Track: 7, TS: 50,
		Attrs: []Attr{Uint("misses", 41)}})

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var phases []string
	var names []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
		names = append(names, ev["name"].(string))
	}
	// Two process_name + one thread_name metadata, then the events.
	want := []string{"M", "M", "M", "X", "X", "C"}
	if len(phases) != len(want) {
		t.Fatalf("got %d events (%v), want %d", len(phases), names, len(want))
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("event %d (%s) has ph %q, want %q", i, names[i], phases[i], want[i])
		}
	}
	run := doc.TraceEvents[3]
	if run["name"] != "run" || run["dur"].(float64) != 100 {
		t.Fatalf("run span mangled: %v", run)
	}
	warm := doc.TraceEvents[4]
	if warm["args"].(map[string]any)["parent_id"].(float64) != 7 {
		t.Fatalf("warmup span lost its parent: %v", warm)
	}
	ctr := doc.TraceEvents[5]
	if ctr["args"].(map[string]any)["misses"].(float64) != 41 {
		t.Fatalf("counter sample mangled: %v", ctr)
	}
}

func TestJSONLExport(t *testing.T) {
	tr := New(16)
	ctx, root := tr.Root(context.Background(), "request")
	_, child := Start(ctx, "execute", Str("cell", "WH1|LAP"))
	child.End()
	root.End()

	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	var rec jsonlEvent
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if rec.Name != "execute" || rec.Parent != root.ID() || rec.Attrs["cell"] != "WH1|LAP" {
		t.Fatalf("unexpected first record: %+v", rec)
	}
}

// BenchmarkRootDisabled measures the disarmed fast path at a span
// creation site: a disabled tracer must cost one atomic load.
func BenchmarkRootDisabled(b *testing.B) {
	tr := New(8)
	tr.SetEnabled(false)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := tr.Root(ctx, "request")
		sp.End()
	}
}

// BenchmarkStartNoSpan measures the other disarmed shape: Start on a
// context carrying no span (an un-traced request), one ctx lookup.
func BenchmarkStartNoSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "memo.compute")
		sp.End()
	}
}

// BenchmarkEmitEnabled sizes the armed cost for comparison.
func BenchmarkEmitEnabled(b *testing.B) {
	tr := New(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Phase: PhaseInstant, Name: "e"})
	}
}

// TestResetStartsOverAndFencesOlderSpans pins what lapserved relies on
// when it recycles a request's tracer: after Reset the tracer records
// and numbers as a new one does, and a span opened before the reset
// records nothing and opens no children, even though the tracer is
// armed again.
func TestResetStartsOverAndFencesOlderSpans(t *testing.T) {
	tr := New(64)
	ctx, root := tr.Root(context.Background(), "request", Str("id", "r1"))
	_, late := Start(ctx, "late")
	root.End()
	tr.NameTrack(PidWall, root.ID(), "r1")
	tr.SetEnabled(false)

	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || !tr.Enabled() {
		t.Fatalf("after Reset: %d events, %d dropped, enabled %v", tr.Len(), tr.Dropped(), tr.Enabled())
	}
	late.End()
	if c := root.Child("orphan"); c != nil {
		t.Fatal("a span from before Reset opened a child")
	}
	if tr.Len() != 0 {
		t.Fatalf("a span opened before Reset was recorded after it: %+v", tr.Events())
	}

	fresh := New(64)
	for _, x := range []*Tracer{tr, fresh} {
		ctx, root := x.Root(context.Background(), "request", Str("id", "r2"))
		_, child := Start(ctx, "attempt", Int("n", 0))
		child.End()
		root.End()
	}
	got, want := tr.Events(), fresh.Events()
	if len(got) != len(want) {
		t.Fatalf("reset tracer holds %d events, a new one %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.ID != w.ID || g.Parent != w.Parent || g.Track != w.Track || g.Name != w.Name {
			t.Errorf("event %d: reset tracer %+v, new tracer %+v", i, g, w)
		}
	}
	if meta := trackMeta(tr); len(meta) != 0 {
		t.Errorf("track names survived Reset: %+v", meta)
	}
}

// TestAttrValues pins the exported value of each attribute kind.
func TestAttrValues(t *testing.T) {
	for _, c := range []struct {
		a    Attr
		want any
	}{
		{Str("s", "x"), "x"}, {Int("i", -3), int64(-3)}, {Uint("u", 1<<63), uint64(1 << 63)},
		{Bool("t", true), true}, {Bool("f", false), false}, {Float("x", 0.25), 0.25},
	} {
		if got := c.a.Value(); got != c.want {
			t.Errorf("%s: Value() = %#v, want %#v", c.a.Key, got, c.want)
		}
	}
}
