package stats

import "math/bits"

// LatencyHist is a log-linear histogram for non-negative latency samples
// (virtual instructions), built for tail quantiles: p50/p99/p999 with a
// bounded relative error and O(1) inserts.
//
// Geometry: values below 64 are recorded exactly (one bucket per value);
// larger values fall into their octave [2^(k-1), 2^k), which is split into
// 32 equal-width subbuckets. A bucket's reported value is its midpoint, so
// the relative error of any reported value — and therefore of any quantile —
// is at most RelErr.
type LatencyHist struct {
	counts [histBuckets]int64
	count  int64
	min    int64 // valid only when count > 0
	max    int64
}

const (
	histSubBits = 6                // log2 of subbuckets per octave
	histSub     = 1 << histSubBits // 64: values below this are exact
	// histBuckets: 64 exact buckets + 32 subbuckets for each of the up to
	// 58 octaves a positive int64 can occupy.
	histBuckets = histSub + (64-histSubBits)*(histSub/2)
)

// RelErr is the guaranteed relative-error bound of every reported value:
// a bucket midpoint differs from any sample in the bucket by at most half
// the bucket width, which is at most 1/64 of the bucket's lower bound.
const RelErr = 1.0 / histSub

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	k := bits.Len64(uint64(v))     // v in [2^(k-1), 2^k), k >= 7
	shift := uint(k - histSubBits) // >= 1
	sub := int(v >> shift)         // in [32, 64)
	return histSub + (k-histSubBits-1)*(histSub/2) + (sub - histSub/2)
}

// histValue returns the bucket's representative value (its midpoint; exact
// for the first 64 buckets).
func histValue(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	b := idx - histSub
	oct := uint(b / (histSub / 2))
	sub := int64(histSub/2 + b%(histSub/2))
	shift := oct + 1
	return sub<<shift + int64(1)<<(shift-1)
}

// Add records one sample. Negative samples clamp to zero.
func (h *LatencyHist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
}

// Count returns the number of recorded samples.
func (h *LatencyHist) Count() int64 { return h.count }

// Min returns the exact minimum sample (0 when empty).
func (h *LatencyHist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum sample (0 when empty).
func (h *LatencyHist) Max() int64 { return h.max }

// Quantile returns the value at quantile q in [0, 1]: the representative
// value of the bucket holding the ceil(q*Count)-th smallest sample, clamped
// to the exact observed [Min, Max]. The result is within RelErr of the
// sample a sorted slice of all inputs would report at that rank. Returns 0
// when empty.
func (h *LatencyHist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := histValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
