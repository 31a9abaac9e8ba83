package obsv

// Detail logs grow in fixed-size chunks instead of by append, so a long run
// never copies a filled chunk and never holds a log twice while it grows.
// firstCap is a power of two no larger than chunkLen, so doubling it reaches
// chunkLen exactly.
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift // records in a full chunk
	firstCap   = 8               // capacity of a log's first allocation
)

// chunkLog is an append-only log kept in chunks. Every chunk but the last
// holds exactly chunkLen records. Only the first chunk grows by copying,
// doubling from firstCap up to chunkLen, so a node that logs little holds
// little; later chunks are allocated whole. Either way a log's unused
// capacity stays below one chunk.
type chunkLog[T any] struct {
	chunks [][]T
}

// add appends v.
func (l *chunkLog[T]) add(v T) {
	n := len(l.chunks)
	switch {
	case n == 0:
		l.chunks = append(l.chunks, make([]T, 0, firstCap))
		n = 1
	case len(l.chunks[n-1]) == chunkLen:
		l.chunks = append(l.chunks, make([]T, 0, chunkLen))
		n++
	case len(l.chunks[n-1]) == cap(l.chunks[n-1]): // the first chunk, not yet whole
		c := make([]T, len(l.chunks[0]), 2*cap(l.chunks[0]))
		copy(c, l.chunks[0])
		l.chunks[0] = c
	}
	l.chunks[n-1] = append(l.chunks[n-1], v)
}

// len returns the number of records.
func (l *chunkLog[T]) len() int {
	n := len(l.chunks)
	if n == 0 {
		return 0
	}
	return (n-1)<<chunkShift + len(l.chunks[n-1])
}

// at returns record i.
func (l *chunkLog[T]) at(i int) *T {
	return &l.chunks[i>>chunkShift][i&(chunkLen-1)]
}

// last returns the latest record, nil if there is none.
func (l *chunkLog[T]) last() *T {
	n := len(l.chunks)
	if n == 0 {
		return nil
	}
	c := l.chunks[n-1]
	return &c[len(c)-1]
}
