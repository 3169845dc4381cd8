// Package repro is a from-scratch Go reproduction of "HyLo: A Hybrid
// Low-Rank Natural Gradient Descent Method" (SC 2022). The implementation
// lives under internal/, the tools under cmd/ (hylo-bench regenerates the
// paper's tables and figures) and examples/; see README.md and DESIGN.md.
package repro
