package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Sparkline renders a float series as a compact unicode bar string, used
// by the report generator to show accuracy-vs-epoch curves inline.
func Sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	minV, maxV := vals[0], vals[0]
	for _, v := range vals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	span := maxV - minV
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if span > 0 {
			idx = int((v - minV) / span * float64(len(ticks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ticks) {
			idx = len(ticks) - 1
		}
		b.WriteRune(ticks[idx])
	}
	return b.String()
}

// Markdown renders a Table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// Result is one finished experiment: its table and how long it ran.
type Result struct {
	Table   *Table
	Elapsed time.Duration
}

// Report renders finished experiments as one markdown document, attaching
// sparkline summaries to the per-epoch curve experiment. It runs nothing;
// cfg is only quoted in the header.
func Report(cfg RunConfig, results []Result) string {
	var b strings.Builder
	b.WriteString("# HyLo reproduction report\n\n")
	fmt.Fprintf(&b, "Generated with seed %d (quick=%v).\n\n", cfg.Seed, cfg.Quick)
	for _, r := range results {
		b.WriteString(r.Table.Markdown())
		if r.Table.ID == "fig6" {
			b.WriteString(curveSparklines(r.Table))
		}
		fmt.Fprintf(&b, "_%s completed in %.1fs._\n\n", r.Table.ID, r.Elapsed.Seconds())
	}
	return b.String()
}

// curveSparklines condenses the fig6 per-epoch rows into one sparkline per
// (model, method) series.
func curveSparklines(t *Table) string {
	type key struct{ model, method string }
	series := map[key][]float64{}
	var order []key
	for _, row := range t.Rows {
		if len(row) < 4 {
			continue
		}
		k := key{row[0], row[1]}
		if _, seen := series[k]; !seen {
			order = append(order, k)
		}
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			continue
		}
		series[k] = append(series[k], v)
	}
	var b strings.Builder
	b.WriteString("Accuracy curves:\n\n```\n")
	for _, k := range order {
		vals := series[k]
		last := 0.0
		if len(vals) > 0 {
			last = vals[len(vals)-1]
		}
		fmt.Fprintf(&b, "%-18s %-8s %s  (final %.3f)\n", k.model, k.method, Sparkline(vals), last)
	}
	b.WriteString("```\n\n")
	// One full chart per model, overlaying the methods.
	models := map[string][]Series{}
	var modelOrder []string
	for _, k := range order {
		if _, seen := models[k.model]; !seen {
			modelOrder = append(modelOrder, k.model)
		}
		models[k.model] = append(models[k.model], Series{Label: k.method, Values: series[k]})
	}
	for _, m := range modelOrder {
		fmt.Fprintf(&b, "%s:\n\n```\n%s```\n\n", m, AsciiChart(models[m], 48, 10))
	}
	return b.String()
}
