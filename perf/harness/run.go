package harness

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/mat"
	"repro/internal/sched"
)

// RunWorkload runs one workload by name, end to end (trace false) or traced,
// at benchmark size or, with o.Smoke, at toy size.
func RunWorkload(name string, trace bool, o RunOpts) (*Result, error) {
	for _, s := range TrainSpecs() {
		if s.Name != name {
			continue
		}
		if o.Smoke {
			s = s.Smoke()
		}
		if trace {
			return RunTrainTrace(s, o)
		}
		return RunTrainE2E(s, o)
	}
	for _, s := range ServeSpecs() {
		if s.Name != name {
			continue
		}
		if o.Smoke {
			s = s.Smoke()
		}
		return RunServe(s, o, trace)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(WorkloadNames(), ", "))
}

// SetProcs fixes the process's parallelism: GOMAXPROCS and the scheduler's
// workers both become procs, never more than the machine has.
func SetProcs(procs int) int {
	procs = max(1, min(procs, runtime.NumCPU()))
	runtime.GOMAXPROCS(procs)
	sched.SetWorkers(procs)
	return procs
}

// Env describes where a set of numbers was taken.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// FMA is the numeric kernel family mat computed with: the fused
	// multiply-add kernels or mul+add. The two differ in speed and in the
	// last bit, so every process of a run is pinned to one (HYLO_FMA).
	FMA bool `json:"fma"`
}

// ReadEnv collects the environment block.
func ReadEnv() Env {
	e := Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		Go: runtime.Version(), Commit: "unknown", FMA: mat.FMAKernels()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the driver's copy is one) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}
