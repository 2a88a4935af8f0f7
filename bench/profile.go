package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profModules maps a package path prefix to the module name reported as
// prof.<module>.self_pct. The first matching prefix wins, so longer prefixes
// come first.
var profModules = []struct{ prefix, module string }{
	{"weakorder/internal/workload/openloop", "openloop"},
	{"weakorder/internal/sim", "sim"},
	{"weakorder/internal/proc", "proc"},
	{"weakorder/internal/cache", "cache"},
	{"weakorder/internal/interconnect", "interconnect"},
	{"weakorder/internal/machine", "machine"},
	{"weakorder/internal/program", "program"},
	{"weakorder/internal/explore", "explore"},
	{"weakorder/internal/model", "model"},
	{"weakorder/internal/core", "core"},
	{"weakorder/internal/digest", "digest"},
	{"weakorder/internal/fuzz", "fuzz"},
	{"weakorder/internal/campaign", "campaign"},
	{"net/http", "http_json"},
	{"encoding/json", "http_json"},
	{"runtime", "go_runtime"},
	{"internal/runtime", "go_runtime"},
}

// profModuleNames lists every module a profile reports, "other" last.
func profModuleNames() []string {
	var out []string
	seen := make(map[string]bool)
	for _, m := range profModules {
		if !seen[m.module] {
			seen[m.module] = true
			out = append(out, m.module)
		}
	}
	return append(out, "other")
}

// moduleOf attributes a profiled function name to a module.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // drop type arguments, which may hold '/' and '.'
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	for _, m := range profModules {
		if pkg == m.prefix || strings.HasPrefix(pkg, m.prefix+"/") {
			return m.module
		}
	}
	return "other"
}

// selfShares reads the CPU profile at path with `go tool pprof -top` and
// returns each module's share of flat (self) CPU time in percent. pprof
// gives a sample's self time to the innermost function of its leaf,
// inlined functions included. A profile with no samples gives no shares.
func selfShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-symbolize=none", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := make(map[string]float64)
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		// Rows follow the "flat flat% sum% cum cum%" header; the function
		// name, which may hold spaces, is everything after the fifth column.
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof row %q: %w", line, err)
		}
		shares[moduleOf(strings.Join(f[5:], " "))] += pct
	}
	if !rows {
		return nil, fmt.Errorf("go tool pprof printed no table:\n%s", out)
	}
	return shares, nil
}
