package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"pradram/internal/sim"
)

// writeManifest prints the host and build the numbers were measured on:
// absolute host times do not carry across machines.
func writeManifest(w io.Writer, workload string, seed uint64, traced int) {
	m := map[string]any{
		"workload":      workload,
		"seed":          seed,
		"trace":         traced,
		"git_sha":       gitSHA("."),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"model_version": sim.ModelVersion,
	}
	data, err := json.Marshal(m)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "manifest %s\n", data)
}

// gitSHA resolves HEAD from the .git directory without running git; a
// checkout without one (an exported tree) reports "unknown".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer packed.Close()
	sc := bufio.NewScanner(packed)
	for sc.Scan() {
		if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
