package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	var rec Record
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

// drain reads from s until want events arrived, returning them with the
// drops Next reported.
func drain(t *testing.T, s *Subscriber, want int) ([]Event, uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out []Event
	var drops uint64
	for len(out) < want {
		batch, d, err := s.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v (got %d/%d events)", err, len(out), want)
		}
		out = append(out, batch...)
		drops += d
	}
	return out, drops
}

// attr returns ev's attribute key, or nil.
func attr(ev Event, key string) any {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}

func TestInstantSubscribeBasic(t *testing.T) {
	tr := New(16)
	if tr.Streaming() {
		t.Fatal("fresh tracer reports streaming")
	}
	s := tr.Subscribe(0, 0, Filter{})
	defer s.Close()
	if !tr.Streaming() {
		t.Fatal("tracer with a subscriber not streaming")
	}
	tr.Instant("run.start", Str("run", "w|p"), Str("trace_id", "req-000001"))
	tr.Instant("run.finish", Str("run", "w|p"), Uint("cycles", 42))
	got, drops := drain(t, s, 2)
	if drops != 0 {
		t.Fatalf("unexpected drops: %d", drops)
	}
	if got[0].Name != "run.start" || got[1].Name != "run.finish" {
		t.Fatalf("names = %q, %q", got[0].Name, got[1].Name)
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d; want 1, 2", got[0].Seq, got[1].Seq)
	}
	if got[0].Phase != PhaseInstant || got[0].Pid != PidWall {
		t.Fatalf("instant recorded as phase %q on pid %d", got[0].Phase, got[0].Pid)
	}
	if attr(got[0], "trace_id") != "req-000001" || attr(got[1], "cycles") != uint64(42) {
		t.Fatalf("attrs = %+v, %+v", got[0].Attrs, got[1].Attrs)
	}
	rec := got[1].Record()
	if rec.Ph != "i" || rec.Attrs["run"] != "w|p" {
		t.Fatalf("record = %+v", rec)
	}
}

// TestNilTracerStreamSafe pins the streaming API on a nil tracer: no
// call panics, nothing streams, and a subscriber is born closed.
func TestNilTracerStreamSafe(t *testing.T) {
	var nilT *Tracer
	if nilT.Streaming() {
		t.Fatal("nil tracer streaming")
	}
	nilT.Instant("x") // must not panic
	if nilT.Len() != 0 || nilT.Events() != nil {
		t.Fatal("nil tracer holds events")
	}
	nilT.CloseSubscribers()
	if live, dropped := nilT.Subscribers(); live != 0 || dropped != 0 {
		t.Fatalf("nil tracer has %d subscribers, %d dropped", live, dropped)
	}
	s := nilT.Subscribe(4, 0, Filter{})
	if _, _, err := s.Next(context.Background()); err != ErrClosed {
		t.Fatalf("Next on a nil tracer's subscriber: %v, want ErrClosed", err)
	}
	s.Close()
}

// TestRingBoundAndReplay pins what a reconnecting subscriber can get
// back: replay draws only on the resident ring, so after 10 instants
// into a 4-slot ring it yields the newest 4 (Seq 7..10), and a later
// from keeps the newest events from there on.
func TestRingBoundAndReplay(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Instant(fmt.Sprintf("k%d", i))
	}
	if tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("Len = %d, Dropped = %d; want 4, 6", tr.Len(), tr.Dropped())
	}
	for _, c := range []struct {
		from  uint64
		first uint64
	}{{1, 7}, {7, 7}, {9, 9}} {
		s := tr.Subscribe(0, c.from, Filter{})
		want := int(10 - c.first + 1)
		got, drops := drain(t, s, want)
		s.Close()
		if len(got) != want || drops != 0 {
			t.Fatalf("from %d: replayed %d events with %d drops, want %d and 0", c.from, len(got), drops, want)
		}
		for i, ev := range got {
			if wantSeq := c.first + uint64(i); ev.Seq != wantSeq || ev.Name != fmt.Sprintf("k%d", wantSeq-1) {
				t.Fatalf("from %d: event %d = %q Seq %d, want k%d Seq %d", c.from, i, ev.Name, ev.Seq, wantSeq-1, wantSeq)
			}
		}
	}
	s := tr.Subscribe(0, 11, Filter{})
	s.Close()
	if got, _, err := s.Next(context.Background()); err != ErrClosed {
		t.Fatalf("from past the newest event: replayed %d events (%v), want none", len(got), err)
	}
}

func TestFilterNameAndRun(t *testing.T) {
	tr := New(32)
	s := tr.Subscribe(0, 0, Filter{Names: []string{"run.*", "drain.begin"}})
	defer s.Close()
	byRun := tr.Subscribe(0, 0, Filter{Run: "a|p"})
	defer byRun.Close()

	tr.Instant("run.start", Str("run", "a|p"))
	tr.Instant("interval", Str("run", "a|p"))
	tr.Instant("drain.begin")
	tr.Instant("drain.end")
	tr.Instant("run.finish", Str("run", "b|p"))

	got, _ := drain(t, s, 3)
	for i, want := range []string{"run.start", "drain.begin", "run.finish"} {
		if got[i].Name != want {
			t.Fatalf("filtered event %d = %q, want %q", i, got[i].Name, want)
		}
	}
	gotRun, _ := drain(t, byRun, 2)
	if gotRun[0].Name != "run.start" || gotRun[1].Name != "interval" {
		t.Fatalf("run-filtered names = %q, %q", gotRun[0].Name, gotRun[1].Name)
	}
}

// TestSlowSubscriberDropsOldest pins the backpressure contract: a
// subscriber that never drains loses its oldest events (counted), and
// the emitter never blocks.
func TestSlowSubscriberDropsOldest(t *testing.T) {
	tr := New(64)
	s := tr.Subscribe(4, 0, Filter{})
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			tr.Instant("burst")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("emitter blocked on a slow subscriber")
	}
	got, drops := drain(t, s, 4)
	if drops != 16 {
		t.Fatalf("drops = %d, want 16", drops)
	}
	for i, ev := range got {
		if want := uint64(17 + i); ev.Seq != want {
			t.Fatalf("survivor %d has Seq %d, want %d", i, ev.Seq, want)
		}
	}
	if _, dropped := tr.Subscribers(); dropped != 16 {
		t.Fatalf("tracer counts %d subscriber drops, want 16", dropped)
	}
}

// TestReplayMonotoneAcrossReconnect pins the reconnect contract: a
// subscriber that resubscribes from last-seen+1 sees a strictly
// increasing sequence with no duplicates and, while the ring still
// holds them, no gaps.
func TestReplayMonotoneAcrossReconnect(t *testing.T) {
	tr := New(128)
	s := tr.Subscribe(0, 0, Filter{})
	for i := 0; i < 5; i++ {
		tr.Instant("a")
	}
	got, _ := drain(t, s, 5)
	last := got[len(got)-1].Seq
	s.Close()

	for i := 0; i < 7; i++ {
		tr.Instant("b") // emitted while disconnected
	}
	s2 := tr.Subscribe(0, last+1, Filter{})
	defer s2.Close()
	for i := 0; i < 3; i++ {
		tr.Instant("c")
	}
	got2, _ := drain(t, s2, 10)
	seq := last
	for i, ev := range got2 {
		if ev.Seq != seq+1 {
			t.Fatalf("event %d: seq %d after %d (gap or duplicate)", i, ev.Seq, seq)
		}
		seq = ev.Seq
	}
	if seq != 15 {
		t.Fatalf("final seq = %d, want 15", seq)
	}
}

func TestReplayFilteredFromSeq(t *testing.T) {
	tr := New(64)
	tr.Instant("keep")
	tr.Instant("skip")
	tr.Instant("keep")
	s := tr.Subscribe(0, 2, Filter{Names: []string{"keep"}})
	defer s.Close()
	got, _ := drain(t, s, 1)
	if got[0].Seq != 3 || got[0].Name != "keep" {
		t.Fatalf("replayed %+v, want seq 3 named keep", got[0])
	}
}

func TestCloseDrainsThenErrClosed(t *testing.T) {
	tr := New(16)
	s := tr.Subscribe(0, 0, Filter{})
	tr.Instant("x")
	s.Close()
	got, _, err := s.Next(context.Background())
	if err != nil || len(got) != 1 {
		t.Fatalf("Next after Close = %v, err %v; want the queued event", got, err)
	}
	if _, _, err := s.Next(context.Background()); err != ErrClosed {
		t.Fatalf("drained Next err = %v, want ErrClosed", err)
	}
	if tr.Streaming() {
		t.Fatal("tracer still streaming after its sole subscriber closed")
	}
	s.Close() // idempotent
}

func TestCloseSubscribers(t *testing.T) {
	tr := New(16)
	s1 := tr.Subscribe(0, 0, Filter{})
	s2 := tr.Subscribe(0, 0, Filter{})
	tr.Instant("before")
	tr.CloseSubscribers()
	for i, s := range []*Subscriber{s1, s2} {
		if got, _, err := s.Next(context.Background()); err != nil || len(got) != 1 {
			t.Fatalf("s%d: Next = %d events, err %v; want the queued event", i+1, len(got), err)
		}
		if _, _, err := s.Next(context.Background()); err != ErrClosed {
			t.Fatalf("s%d err = %v, want ErrClosed", i+1, err)
		}
	}
	if live, _ := tr.Subscribers(); live != 0 || tr.Streaming() {
		t.Fatalf("%d subscribers live after CloseSubscribers", live)
	}
	tr.Instant("after") // the ring still records
	if evs := tr.Events(); len(evs) != 2 || evs[1].Name != "after" {
		t.Fatalf("events after CloseSubscribers = %+v", evs)
	}
}

func TestNextContextCancel(t *testing.T) {
	tr := New(16)
	s := tr.Subscribe(0, 0, Filter{})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := s.Next(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Next err = %v, want DeadlineExceeded", err)
	}
}

// TestSubscriberHammerRace runs concurrent emitters, subscribers that
// connect, drain and close, and CloseSubscribers sweeps, all at once
// (under -race). Each subscriber's sequence must increase; the race
// detector checks the rest.
func TestSubscriberHammerRace(t *testing.T) {
	tr := New(256)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var emitted atomic.Uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr.Instant("hammer", Str("run", fmt.Sprintf("g%d", g%2)))
				emitted.Add(1)
			}
		}(g)
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				s := tr.Subscribe(8, uint64(i), Filter{Run: fmt.Sprintf("g%d", g%2)})
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				var last uint64
				for {
					batch, _, err := s.Next(ctx)
					if err != nil {
						break
					}
					for _, ev := range batch {
						if ev.Seq <= last {
							t.Errorf("non-monotone seq %d after %d", ev.Seq, last)
						}
						last = ev.Seq
					}
				}
				cancel()
				s.Close()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			tr.CloseSubscribers()
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := uint64(tr.Len()) + tr.Dropped(); got != emitted.Load() {
		t.Fatalf("tracer recorded %d events, producers emitted %d", got, emitted.Load())
	}
}

// BenchmarkStreamingGate measures the idle gate high-rate producers
// check: with no subscriber it is one atomic load and allocates
// nothing.
func BenchmarkStreamingGate(b *testing.B) {
	tr := New(64)
	var hits int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Streaming() {
			hits++
		}
	}
	if hits != 0 {
		b.Fatal("unexpected streaming state")
	}
}

// BenchmarkStreamingGateNil is the gate with no tracer at all: one nil
// check.
func BenchmarkStreamingGateNil(b *testing.B) {
	var tr *Tracer
	var hits int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Streaming() {
			hits++
		}
	}
	if hits != 0 {
		b.Fatal("unexpected streaming state")
	}
}

// BenchmarkInstantNoSubscribers measures ring-only emission: lifecycle
// events record even when nobody watches.
func BenchmarkInstantNoSubscribers(b *testing.B) {
	tr := New(1024)
	run := Str("run", "w|p")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant("run.finish", run)
	}
}

// BenchmarkInstantOneSubscriber measures fan-out to one live subscriber
// that never drains, so its queue drops its oldest event each time.
func BenchmarkInstantOneSubscriber(b *testing.B) {
	tr := New(1024)
	s := tr.Subscribe(256, 0, Filter{})
	defer s.Close()
	run := Str("run", "w|p")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant("interval", run)
	}
}
