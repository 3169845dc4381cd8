// Command hylo-ckpt inspects fault-tolerance checkpoint directories
// written by hylo-train -checkpoint-dir:
//
//	hylo-ckpt list <dir>     # snapshots, newest last
//	hylo-ckpt verify <dir>   # validate every snapshot's checksum
//	hylo-ckpt show <file>    # header + every bundle's sections and sizes
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/ckpt"
)

func main() {
	if len(os.Args) != 3 {
		usage()
	}
	cmd, arg := os.Args[1], os.Args[2]
	var err error
	switch cmd {
	case "list":
		err = list(arg)
	case "verify":
		err = verify(arg)
	case "show":
		err = show(arg)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hylo-ckpt: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hylo-ckpt list|verify <dir> | hylo-ckpt show <file>")
	os.Exit(2)
}

func list(dir string) error {
	paths, err := snapshots(dir)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		fmt.Println("no checkpoints")
		return nil
	}
	fmt.Printf("%-28s %-8s %-8s %-8s %-10s\n", "file", "epoch", "step", "ranks", "size")
	for _, p := range paths {
		info, _ := os.Stat(p)
		snap, err := ckpt.Load(p)
		if err != nil {
			fmt.Printf("%-28s INVALID: %v\n", filepath.Base(p), err)
			continue
		}
		fmt.Printf("%-28s %-8d %-8d %-8d %-10d\n",
			filepath.Base(p), snap.Epoch, snap.Step, snap.P, info.Size())
	}
	return nil
}

func verify(dir string) error {
	paths, err := snapshots(dir)
	if err != nil {
		return err
	}
	bad := 0
	for _, p := range paths {
		if _, err := ckpt.Load(p); err != nil {
			fmt.Printf("%s: CORRUPT (%v)\n", filepath.Base(p), err)
			bad++
		} else {
			fmt.Printf("%s: ok\n", filepath.Base(p))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d snapshots corrupt", bad, len(paths))
	}
	fmt.Printf("%d snapshots verified\n", len(paths))
	return nil
}

func show(path string) error {
	snap, err := ckpt.Load(path)
	if err != nil {
		return err
	}
	fmt.Printf("version: %d\nepoch:   %d\nstep:    %d\nranks:   %d\n", snap.Version, snap.Epoch, snap.Step, snap.P)
	bundle("trainer:", snap.Trainer)
	for r, b := range snap.Ranks {
		bundle(fmt.Sprintf("rank %d:", r), b)
	}
	return nil
}

// bundle prints one section bundle's size and its sections, each with its
// own size, in key order.
func bundle(label string, b []byte) {
	fmt.Printf("%-8s %d bytes", label, len(b))
	if sections, err := ckpt.DecodeSections(b); err == nil {
		keys := make([]string, 0, len(sections))
		for k := range sections {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s=%d", k, len(sections[k]))
		}
	}
	fmt.Println()
}

func snapshots(dir string) ([]string, error) {
	m, err := ckpt.NewManager(dir, 0)
	if err != nil {
		return nil, err
	}
	return m.List()
}
