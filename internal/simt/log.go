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
// never indexed. Rewind empties the log and keeps its chunks, so a
// Machine's replay buffers stop allocating once they have held their
// largest launch. The zero value is an empty log.
type Log[T any] struct {
	tail   []T   // the chunk being filled, chunks[used-1]; nil when used == 0
	chunks [][]T // every chunk allocated, each at full length, oldest first
	used   int   // chunks[:used] hold the records, all but the last full
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
		l.nextChunk()
	}
	l.tail = append(l.tail, v)
}

// nextChunk makes the next chunk the tail, allocating it unless a Rewind
// left one to reuse.
func (l *Log[T]) nextChunk() {
	if l.used == len(l.chunks) {
		size := logFirstChunk
		if l.used > 0 {
			size = min(2*len(l.chunks[l.used-1]), LogChunkCap)
		}
		l.chunks = append(l.chunks, make([]T, size))
	}
	l.tail = l.chunks[l.used][:0]
	l.used++
}

// Len returns the number of records in the log.
func (l *Log[T]) Len() int {
	n := len(l.tail)
	for _, c := range l.chunks[:max(l.used-1, 0)] {
		n += len(c)
	}
	return n
}

// Each calls visit with every record, oldest first. The pointer is into
// the log: it stays valid, and the record unchanged, until a Rewind.
func (l *Log[T]) Each(visit func(*T)) {
	for i := 0; i < l.used; i++ {
		c := l.chunks[i]
		if i == l.used-1 {
			c = l.tail
		}
		for j := range c {
			visit(&c[j])
		}
	}
}

// Rewind empties the log, keeping its chunks for the records to come.
func (l *Log[T]) Rewind() { l.tail, l.used = nil, 0 }
