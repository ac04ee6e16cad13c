package telemetry

import (
	"encoding/json"
	"io"
)

// WriteJSON writes the snapshot as indented JSON — the shape
// `perf json` validates in telemetry-smoke and -telemetry-json dumps.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
