// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 2.4 and 3.1). Each experiment returns a Table whose
// rows mirror the paper's layout, so the output of cmd/benchtab can be
// compared against the paper's tables side by side.
//
// A Scale divisor shrinks dataset sizes uniformly so the full suite also
// runs in CI-sized time budgets; Scale 1 is paper scale.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a formatted experiment result.
type Table struct {
	// ID is the paper's label, e.g. "Table 3" or "Figure 6".
	ID string
	// Title describes the experiment.
	Title string
	// Header holds column names; Rows hold one label plus len(Header)-1
	// cells each.
	Header []string
	Rows   []Row
	// Notes carry calibration caveats shown under the table.
	Notes []string
	// Metrics are the experiment's machine-readable measurements, the
	// feed for benchtab -json and its baseline regression gate. They
	// duplicate what the formatted rows show, in comparable units.
	Metrics []Metric
}

// Metric is one machine-readable measurement. Names are
// slash-namespaced ("ingest/binary_http/elems_per_sec") so one JSON file can
// hold every experiment's trajectory.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Better is "higher" or "lower": which direction is an improvement.
	// The regression gate needs it to tell a win from a loss.
	Better string `json:"better"`
	// Gate opts the metric into benchtab's -regress check. Leave false
	// for context-only measurements too noisy to gate CI on.
	Gate bool `json:"gate,omitempty"`
}

// AddMetric appends a machine-readable measurement.
func (t *Table) AddMetric(name string, value float64, unit, better string, gate bool) {
	t.Metrics = append(t.Metrics, Metric{Name: name, Value: value, Unit: unit, Better: better, Gate: gate})
}

// Row is one table row.
type Row struct {
	Label string
	Cells []string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(label string, cells ...string) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
		for i, c := range r.Cells {
			if i+1 < len(widths) && len(c) > widths[i+1] {
				widths[i+1] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", sum(widths)+2*(len(widths)-1))); err != nil {
		return err
	}
	for _, r := range t.Rows {
		cells := append([]string{r.Label}, r.Cells...)
		if _, err := fmt.Fprintln(w, line(cells)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// scaleN divides a paper dataset size by the scale divisor, keeping a
// floor large enough for the configured sample sizes to stay meaningful.
func scaleN(n int, scale int) int {
	if scale < 1 {
		scale = 1
	}
	out := n / scale
	if out < 20_000 {
		out = 20_000
	}
	return out
}

// fmtPct formats an error-rate percentage like the paper (two decimals).
func fmtPct(v float64) string { return fmt.Sprintf("%.2f", v) }
