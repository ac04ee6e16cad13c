package obs

import (
	"unsafe"

	"specrecon/internal/simt"
)

// HeldBytes is what the recorder's two logs hold: its trace records and
// its occupancy samples.
func (r *TraceRecorder) HeldBytes() int {
	return r.recs.Len()*int(unsafe.Sizeof(traceRec{})) + r.samples.Len()*int(unsafe.Sizeof(simt.Sample{}))
}
