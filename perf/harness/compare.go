package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// Verdicts of a comparison.
const (
	Better     = "better"
	Within     = "within"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Judge compares one end-to-end metric of two sets of runs, a the parent's
// and b the change's. higherBetter gives the direction, bound the share of
// a's median by which b's may be worse.
//
//   - worse: b's median is worse than a's by more than the bound.
//   - unresolved: the run-to-run spread of either side is wider than the
//     bound, so "no worse" cannot be told from noise — unless every run of
//     b reads better than every run of a, which is better.
//   - better: b's median is better by more than the spread of a's own runs.
//   - within: anything else.
func Judge(a, b []float64, higherBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return Unresolved
	}
	ma, mb := Median(a), Median(b)
	if ma == 0 {
		if mb == 0 {
			return Within
		}
		return Unresolved
	}
	worseBy := (mb - ma) / math.Abs(ma)
	if higherBetter {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return Worse
	}
	if math.Max(Spread(a), Spread(b)) > bound {
		if allBetter(a, b, higherBetter) {
			return Better
		}
		return Unresolved
	}
	if -worseBy > Spread(a) {
		return Better
	}
	return Within
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b []float64, higherBetter bool) bool {
	if higherBetter {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

func readDoc(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// CompareFiles compares document b against document a with the bounds of
// the benchmark file and prints one verdict per (workload, end-to-end
// metric), and per exact-repeat count. It reports whether anything is worse.
// The timings of a workload the contract does not gate (serve_closed2) get
// their verdict too, marked, but it does not count: two sets of one commit
// differ there by more than the bound.
func CompareFiles(w io.Writer, benchPath, aPath, bPath string) (worse bool, err error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readDoc(aPath)
	if err != nil {
		return false, err
	}
	b, err := readDoc(bPath)
	if err != nil {
		return false, err
	}
	return Compare(w, bf, a, b), nil
}

// Compare is CompareFiles on decoded documents.
func Compare(w io.Writer, bf benchmarkFile, a, b *Doc) (worse bool) {
	byName := map[string]WorkloadDoc{}
	for _, wd := range b.Workloads {
		byName[wd.Name] = wd
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median\tB median\tchange\tbound\tspread A/B\tverdict\n")
	count := map[string]int{}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		gated := slices.Contains(ContractWorkloadNames(), wa.Name)
		for _, m := range bf.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := Judge(sa.Values, sb.Values, m.Better == "higher", m.Bound)
			if gated {
				count[v]++
			} else {
				v += ", not gated"
			}
			change := 0.0
			if sa.Median != 0 {
				change = 100 * (sb.Median - sa.Median) / math.Abs(sa.Median)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f %%\t%.0f %%\t%.1f / %.1f %%\t%s\n", wa.Name, m.Name,
				sa.Median, sb.Median, change, 100*m.Bound, 100*sa.Spread, 100*sb.Spread, v)
		}
		// Counts the program's arithmetic fixes must repeat exactly.
		for _, def := range PerLayer {
			if !def.Exact {
				continue
			}
			pa, pb := wa.PerLayer[def.Name], wb.PerLayer[def.Name]
			v := Within
			if math.Float64bits(pa.Value) != math.Float64bits(pb.Value) {
				v = Worse
			}
			count[v]++
			fmt.Fprintf(tw, "%s\t%s\t%.17g\t%.17g\t\texact\t\t%s\n", wa.Name, def.Name, pa.Value, pb.Value, v)
		}
		if wb.Failed > wa.Failed {
			count[Worse]++
			fmt.Fprintf(tw, "%s\tfailed operations\t%d\t%d\t\t\t\t%s\n", wa.Name, wa.Failed, wb.Failed, Worse)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d better, %d within, %d worse, %d unresolved\n",
		count[Better], count[Within], count[Worse], count[Unresolved])
	return count[Worse] > 0
}
