// Attribution reporting: render the registry as the kind of table the
// paper's argument is built on — every cycle of every node accounted to a
// method or to the runtime, with the execution-model counters that explain
// it (stack calls vs. fallbacks, suspends, wrappers).
package obsv

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/instr"
	"repro/internal/stats"
)

// AttributionTable builds the per-method cycle-attribution table for the
// run. Rows are sorted by attributed cycles; "(runtime)" is dispatch,
// scheduling and messaging overhead outside any body, "(idle)" is
// processor wait time. The cycle column sums exactly to the machine-wide
// virtual time (every node's final clock, summed).
func (m *Metrics) AttributionTable(title string) stats.Table {
	t := stats.Table{
		Title: title,
		Headers: []string{"method", "cycles", "%", "invokes", "stack", "fallback",
			"suspend", "wrapper", "lockblk", "avg suspend"},
	}
	total := m.TotalAttributed()
	pct := func(v int64) string {
		if total == 0 {
			return "0.0"
		}
		return fmt.Sprintf("%.1f", 100*float64(v)/float64(total))
	}
	var attributed int64
	methods := m.Methods()
	sort.SliceStable(methods, func(i, j int) bool { return methods[i].Cycles > methods[j].Cycles })
	for _, mp := range methods {
		attributed += mp.Cycles
		avg := "-"
		if mp.SuspendPairs > 0 {
			avg = fmt.Sprintf("%.0f", float64(mp.SuspendSum)/float64(mp.SuspendPairs))
		}
		t.AddRow(mp.Name, fmt.Sprintf("%d", mp.Cycles), pct(mp.Cycles),
			fmt.Sprintf("%d", mp.Invokes), fmt.Sprintf("%d", mp.StackCalls),
			fmt.Sprintf("%d", mp.Fallbacks), fmt.Sprintf("%d", mp.Suspends),
			fmt.Sprintf("%d", mp.Wrappers), fmt.Sprintf("%d", mp.LockBlocks), avg)
	}
	var idle int64
	for _, np := range m.nodes {
		idle += np.ops[instr.OpIdle]
	}
	runtime := total - attributed - idle
	t.AddRow("(runtime)", fmt.Sprintf("%d", runtime), pct(runtime), "-", "-", "-", "-", "-", "-", "-")
	t.AddRow("(idle)", fmt.Sprintf("%d", idle), pct(idle), "-", "-", "-", "-", "-", "-", "-")
	t.AddRow("total", fmt.Sprintf("%d", total), "100.0", "-", "-", "-", "-", "-", "-", "-")
	t.AddNote("cycles sum to the machine-wide virtual time; per node the attribution equals the final clock exactly")
	return t
}

// WriteReport renders the full profile: attribution table, the critical
// path partition, and message/suspend summaries. seconds, if non-nil,
// converts instructions to modeled seconds for the path report.
func (m *Metrics) WriteReport(w io.Writer, title string, seconds func(int64) float64) {
	tab := m.AttributionTable(title)
	tab.Render(w)
	fmt.Fprintln(w)
	m.CriticalPath().WritePath(w, seconds)
	if m.msgWords.count > 0 {
		fmt.Fprintf(w, "messages: %d sent, mean %.1f words, max %d\n",
			m.msgWords.count, m.msgWords.mean(), m.msgWords.max)
	}
	if m.suspend.count > 0 {
		fmt.Fprintf(w, "suspends: %d paired, mean %.0f instr, max %d\n",
			m.suspend.count, m.suspend.mean(), m.suspend.max)
	}
	if m.Truncated() {
		fmt.Fprintln(w, "note: detail log truncated (aggregates exact; path/export partial)")
	}
}
