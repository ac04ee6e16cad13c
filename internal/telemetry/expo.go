package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one # HELP / # TYPE header per family, one
// line per series, histograms expanded into cumulative _bucket series
// plus _sum and _count. Output is deterministic (Snapshot order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus writes an already-frozen snapshot; see
// Registry.WritePrometheus.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, m := range s.Metrics {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, escapeHelp(m.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Type); err != nil {
			return err
		}
		for _, se := range m.Series {
			var err error
			switch m.Type {
			case string(KindHistogram):
				for _, b := range se.Buckets {
					if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
						m.Name, labelSet(se.Labels, "le", formatFloat(b.UpperBound)), b.Count); err != nil {
						return err
					}
				}
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
					m.Name, labelSet(se.Labels, "le", "+Inf"), se.Count); err != nil {
					return err
				}
				if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, labelSet(se.Labels, "", ""), formatFloat(se.Sum)); err != nil {
					return err
				}
				_, err = fmt.Fprintf(w, "%s_count%s %d\n", m.Name, labelSet(se.Labels, "", ""), se.Count)
			default:
				_, err = fmt.Fprintf(w, "%s%s %s\n", m.Name, labelSet(se.Labels, "", ""), formatFloat(se.Value))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON writes the snapshot as indented JSON — the shape
// `perf json` validates in telemetry-smoke and -telemetry-json dumps.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// labelSet renders {k="v",...}, appending the extra pair when its name
// is non-empty; an empty set renders as nothing.
func labelSet(labels []LabelPair, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
