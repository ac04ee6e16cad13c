package simt

// Log is an append-only list of records for what a launch produces one
// of per event or sample: the recorders of internal/obs and the per-SM
// replay buffers of a Workers > 1 launch keep theirs in one. Records go
// into chunks that start at logFirstChunk records and double up to
// LogChunkCap; a record is written once, into its chunk, and never moved,
// so a log allocates what it holds plus at most its last chunk — where a
// slice grown by append, which the runtime grows by a quarter once it is
// large, allocates about five times and copies about four times what it
// ends up holding. Records are appended and visited in order (Each),
// never indexed. The zero value is an empty log.
type Log[T any] struct {
	tail   []T   // the chunk being filled; nil before the first Append
	chunks [][]T // the full chunks before tail, oldest first
}

const (
	logFirstChunk = 64
	// LogChunkCap is the most records one chunk of a Log holds: what a
	// log may have allocated beyond the records it keeps.
	LogChunkCap = 4096
)

// Append adds v at the end of the log.
func (l *Log[T]) Append(v T) {
	if len(l.tail) == cap(l.tail) {
		size := logFirstChunk
		if l.tail != nil {
			l.chunks = append(l.chunks, l.tail)
			size = min(2*cap(l.tail), LogChunkCap)
		}
		l.tail = make([]T, 0, size)
	}
	l.tail = append(l.tail, v)
}

// Len returns the number of records in the log.
func (l *Log[T]) Len() int {
	n := len(l.tail)
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// Each calls visit with every record, oldest first. The pointer is into
// the log: it stays valid, and the record unchanged, for the log's life.
func (l *Log[T]) Each(visit func(*T)) {
	for _, c := range l.chunks {
		for j := range c {
			visit(&c[j])
		}
	}
	for j := range l.tail {
		visit(&l.tail[j])
	}
}
