package obsv

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/instr"
	"repro/internal/trace"
)

// feedLongRun builds a three-node run long enough that node 0 logs more than
// two chunks of busy intervals and of arrivals. The nodes charge work under a
// few methods (and the runtime), send each other messages that the receiver
// waits for when they are still in flight, park on locks and record drop and
// retransmit instants. A small generator seeded with a constant drives it,
// so every call builds the same run.
func feedLongRun(m *Metrics) {
	const nodes = 3
	rng := uint64(1995)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	type pending struct {
		from  int
		at    int64
		seq   uint32
		reply bool
	}
	var (
		clock   [nodes]int64
		seq     [nodes][nodes]uint32
		inbox   [nodes][]pending
		methods = []string{"", "a.f", "b.g", "c.h"}
	)
	charge := func(n int, method string, op instr.Op, cost int64) {
		m.ObserveCharge(n, instr.Instr(clock[n]), method, uint8(op), cost)
		clock[n] += cost
	}
	for step := 0; step < 120_000; step++ {
		n := max(next(4)-1, 0) // node 0 takes half the steps
		switch r := next(20); {
		case r < 9:
			charge(n, methods[next(len(methods))], instr.OpWork, int64(next(40)))
		case r < 13:
			to := (n + 1 + next(nodes-1)) % nodes
			if n != 0 && next(4) != 0 {
				to = 0
			}
			s := seq[n][to]
			seq[n][to]++
			m.Record(n, instr.Instr(clock[n]), uint8(trace.KMsgSend), "a.f", trace.PackMsg(to, s, 4))
			inbox[to] = append(inbox[to], pending{from: n, at: clock[n] + 5 + int64(next(60)), seq: s, reply: next(2) == 0})
		case r < 17:
			if len(inbox[n]) == 0 {
				continue
			}
			p := inbox[n][0]
			inbox[n] = inbox[n][1:]
			if p.at > clock[n] {
				charge(n, "", instr.OpIdle, p.at-clock[n])
			}
			method := "b.g"
			if p.reply {
				method = ""
			}
			m.Record(n, instr.Instr(clock[n]), uint8(trace.KMsgRecv), method, trace.PackMsg(p.from, p.seq, 4))
			charge(n, methods[1+next(len(methods)-1)], instr.OpWork, 1+int64(next(30)))
		case r < 19:
			m.Record(n, instr.Instr(clock[n]), uint8(trace.KLockBlock), "c.h", 0)
			charge(n, "", instr.OpIdle, 1+int64(next(30)))
		default:
			kind := trace.KDrop
			if next(2) == 0 {
				kind = trace.KRetransmit
			}
			m.Record(n, instr.Instr(clock[n]), uint8(kind), methods[next(len(methods))], int64(next(100)))
		}
	}
}

// logDigest renders the registry's retained detail as a pinnable digest:
// the critical path, node 0's partitions over windows that end at the
// intervals around the chunk boundaries and at the end of its run, each at
// several floors, and sha256 sums of every node's retained intervals and of
// the Perfetto export.
func logDigest(t *testing.T, m *Metrics) string {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "path %+v\n", m.CriticalPath())
	ivs := m.RetainedIntervals(0)
	ends := []int64{m.nodes[0].total}
	for _, i := range []int{4095, 4096, 8191, 8192, 8193} {
		if i < len(ivs) {
			ends = append(ends, ivs[i].End)
		}
	}
	for _, end := range ends {
		for _, span := range []int64{1, 40, 2_000, 60_000, end} {
			fmt.Fprintf(&b, "window (%d,%d] %+v\n", end-span, end, m.PartitionWindow(0, end-span, end))
		}
	}
	for id := range m.nodes {
		h := sha256.New()
		ivs := m.RetainedIntervals(id)
		for _, iv := range ivs {
			fmt.Fprintf(h, "%d %d %q\n", iv.Start, iv.End, iv.Method)
		}
		fmt.Fprintf(&b, "node %d: %d intervals sha256 %x\n", id, len(ivs), h.Sum(nil))
	}
	var export bytes.Buffer
	if err := m.WritePerfetto(&export); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "export %d bytes sha256 %x\n", export.Len(), sha256.Sum256(export.Bytes()))
	return b.String()
}

// TestChunkBoundaries pins what the walker, the test views and the export
// read from logs that span several chunks: a run whose node 0 keeps more than
// two chunks of intervals and arrivals, and the same run with the interval
// cap truncating it partway through a chunk. The digests in testdata were
// captured from the registry that grew each log as one slice.
func TestChunkBoundaries(t *testing.T) {
	for _, c := range []struct {
		name string
		cap  int
	}{
		{"whole", defaultMaxIntervals},
		{"truncated", 37_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := New()
			m.SetMaxIntervals(c.cap)
			feedLongRun(m)
			if err := m.CheckAttribution(); err != nil {
				t.Fatal(err)
			}
			np := m.nodes[0]
			t.Logf("truncated %v, node 0 keeps %d intervals, %d arrivals and %d lock blocks",
				m.Truncated(), np.intervals.len(), np.arrivals.len(), np.lockBlocks.len())
			if c.cap == defaultMaxIntervals {
				if m.Truncated() || len(np.intervals.chunks) <= 2 || len(np.arrivals.chunks) <= 2 || len(np.lockBlocks.chunks) < 2 {
					t.Fatal("node 0's logs do not span enough chunks")
				}
			} else if !m.Truncated() || np.intervals.len()%chunkLen == 0 || len(np.intervals.chunks) <= 2 {
				t.Fatal("the cap does not truncate the run partway through a later chunk")
			}
			got := logDigest(t, m)
			file := "testdata/chunks_" + c.name + ".txt"
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("digest differs from %s:\n got\n%s want\n%s", file, got, want)
			}
		})
	}
}

// TestChunkLog: records come back in order across chunk boundaries, every
// chunk but the last is whole, and the unused capacity stays below one
// chunk.
func TestChunkLog(t *testing.T) {
	for _, n := range []int{0, 1, firstCap, firstCap + 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 5} {
		var l chunkLog[int]
		for i := 0; i < n; i++ {
			l.add(i)
		}
		if l.len() != n {
			t.Fatalf("n=%d: len %d", n, l.len())
		}
		unused := 0
		for k, c := range l.chunks {
			if k < len(l.chunks)-1 && len(c) != chunkLen {
				t.Fatalf("n=%d: chunk %d of %d holds %d records", n, k, len(l.chunks), len(c))
			}
			unused += cap(c) - len(c)
		}
		if unused >= chunkLen {
			t.Fatalf("n=%d: %d records of unused capacity", n, unused)
		}
		for i := 0; i < n; i++ {
			if *l.at(i) != i {
				t.Fatalf("n=%d: record %d reads %d", n, i, *l.at(i))
			}
		}
		if last := l.last(); (n == 0) != (last == nil) || n > 0 && *last != n-1 {
			t.Fatalf("n=%d: wrong last record", n)
		}
	}
}

// TestIntervalLayout: a busy interval is a 16-byte record with no pointer,
// so a full interval log costs 16 bytes a record and nothing for the
// collector to scan.
func TestIntervalLayout(t *testing.T) {
	if size := reflect.TypeFor[interval]().Size(); size != 16 {
		t.Errorf("interval is %d bytes, want 16", size)
	}
	if hasPointer(reflect.TypeFor[interval]()) {
		t.Error("interval holds a pointer")
	}
}

// hasPointer reports whether a value of type t holds a pointer.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}

// TestLongBusyStretch: a busy stretch longer than an interval's 32-bit
// duration continues in a second record, whether one charge is that long or
// a charge would carry a coalesced record past the limit. Either way the
// attribution and the retained intervals stay contiguous, and the critical
// path is all compute, walked as two segments.
func TestLongBusyStretch(t *testing.T) {
	const max32 = math.MaxUint32
	for _, c := range []struct {
		charges []int64
		want    []RetainedInterval
	}{
		// One charge of 2^32+7 cycles, then a short one that coalesces.
		{[]int64{1<<32 + 7, 5}, []RetainedInterval{{0, max32, "m.long"}, {max32, 1<<32 + 12, "m.long"}}},
		// A short charge that would take the record past 2^32-1 cycles.
		{[]int64{max32 - 3, 10}, []RetainedInterval{{0, max32 - 3, "m.long"}, {max32 - 3, max32 + 7, "m.long"}}},
	} {
		m := New()
		var at int64
		for _, cost := range c.charges {
			m.ObserveCharge(0, instr.Instr(at), "m.long", uint8(instr.OpWork), cost)
			at += cost
		}
		if err := m.CheckAttribution(); err != nil {
			t.Fatal(err)
		}
		if got := m.RetainedIntervals(0); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("charges %v: retained intervals %+v, want %+v", c.charges, got, c.want)
		}
		p := m.CriticalPath()
		if p.Total != at || p.Compute != p.Total || p.Steps != 2 || p.Incomplete {
			t.Fatalf("charges %v: critical path %+v, want all %d cycles compute over 2 segments", c.charges, p, at)
		}
	}
}

// TestLogGrowth: interval logs grow without copying filled chunks. When each
// of 64 nodes logs several chunks of intervals, logging allocates less than
// 24 bytes per interval: the 16-byte records plus the first chunk's doubling.
func TestLogGrowth(t *testing.T) {
	const nodes, perNode = 64, 5 * chunkLen
	methods := []string{"a.f", "b.g"} // alternating, so nothing coalesces
	m := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < perNode; i++ {
		for n := 0; n < nodes; n++ {
			m.ObserveCharge(n, instr.Instr(10*i), methods[i%2], uint8(instr.OpWork), 10)
		}
	}
	runtime.ReadMemStats(&after)
	if m.Truncated() || m.intervals != nodes*perNode {
		t.Fatalf("retained %d intervals (truncated %v), want %d", m.intervals, m.Truncated(), nodes*perNode)
	}
	perInterval := float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes*perNode)
	if perInterval >= 24 {
		t.Fatalf("logging allocated %.1f bytes per interval, want under 24", perInterval)
	}
	t.Logf("logging allocated %.1f bytes per interval", perInterval)
}
