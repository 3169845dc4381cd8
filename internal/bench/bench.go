// Package bench contains one runner per figure and table of the paper's
// evaluation (Figs. 2-12, Tables I-IV). Each runner produces a Table that
// cmd/hylo-bench prints; bench_test.go at the repository root wraps the
// same runners in testing.B benchmarks.
//
// Scale experiments (Figs. 3, 7, 8, 9, Table I) use the analytic cost
// model over full-size layer inventories; convergence experiments
// (Figs. 4-6, 10-12, Table III) run real training on the scaled-down
// substitute models (see DESIGN.md §2).
package bench

import (
	"fmt"
	"strings"
)

// RunConfig controls experiment scale.
type RunConfig struct {
	// Quick shrinks workloads for tests/benchmarks (smaller models, fewer
	// epochs, smaller batches).
	Quick bool
	// Seed drives all deterministic randomness.
	Seed uint64
	// KidSketch selects the randomized KID fast path ("off", "gauss",
	// "srht") for every HyLo instance the experiments build — the
	// -kid-sketch flag of hylo-bench. Empty means off.
	KidSketch string
	// KidOversample is the sketch width beyond the KID rank (0 selects
	// the core default).
	KidOversample int
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg RunConfig) *Table
}

// Registry returns every experiment, ordered as in the paper.
func Registry() []Experiment {
	return []Experiment{
		{"fig2", "Distribution of layer dimensions across DNN models", Fig2LayerDims},
		{"fig3", "Computation+communication time of KFAC, HyLo, SNGD at scale (ResNet-50)", Fig3MethodScaling},
		{"fig4", "Single-GPU test accuracy vs time (DenseNet, 3C1F)", Fig4SingleGPU},
		{"fig5", "Multi-GPU test accuracy vs time (ResNet-50, U-Net, ResNet-32 substitutes)", Fig5TimeToAccuracy},
		{"fig6", "Multi-GPU test accuracy vs epoch", Fig6AccuracyPerEpoch},
		{"fig7", "Computation/communication breakdown: HyLo-KID, HyLo-KIS vs KAISA", Fig7Breakdown},
		{"fig8", "Speedup of HyLo over SGD vs number of GPUs (rank sweep)", Fig8Speedup},
		{"fig9", "HyLo scalability vs its single-GPU time", Fig9Scalability},
		{"fig10", "Kernel-matrix numerical rank vs global batch size", Fig10KernelRank},
		{"fig11", "Per-layer gradient norms across epochs", Fig11GradNorms},
		{"fig12", "Normalized gradient error of KID and KIS", Fig12GradError},
		{"table1", "Complexity verification: measured scaling exponents", Table1Complexity},
		{"table1-real", "Complexity verification on real kernels (wall clock)", Table1RealMeasured},
		{"table2", "Models and datasets (substitute inventory)", Table2Models},
		{"table3", "HyLo vs Random switching: accuracy and time", Table3Switching},
		{"table4", "Memory overhead of HyLo, KAISA, ADAM, SGD", Table4Memory},
		{"abl-eta", "Ablation: switching threshold eta", AblationEta},
		{"abl-rank", "Ablation: rank fraction", AblationRank},
		{"abl-freq", "Ablation: update frequency", AblationFreq},
		{"abl-randid", "Ablation: deterministic vs randomized KID", AblationRandomizedID},
		{"abl-rescale", "Ablation: KIS importance rescaling", AblationKISRescale},
		{"abl-capture", "Ablation: conv capture - spatial sum vs per-position", AblationCapture},
		{"abl-topology", "Ablation: flat vs hierarchical network model", AblationTopology},
		{"abl-seeds", "Ablation: seed robustness", AblationSeeds},
		{"ext-vit", "Extension: second-order methods on a ViT-style model", ExtensionViT},
		{"ext-reductions", "Extension: KID vs KIS vs Nystrom gradient error", ExtensionReductions},
		{"ext-fim", "Extension: preconditioning error vs dense Fisher inverse", ExtensionFIMQuality},
		{"abl-straggler", "Ablation: straggler sensitivity", AblationStraggler},
		{"abl-damping", "Ablation: fixed vs adaptive damping", AblationDamping},
	}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func fmtMS(seconds float64) string { return fmt.Sprintf("%.3f", seconds*1e3) }

func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }
