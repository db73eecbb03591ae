package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profile is a CPU profile as `go tool pprof -traces` prints it.
type profile struct {
	samples []profSample
}

// profSample is one sample: its stack as function names, innermost first
// (inlined frames expanded), its CPU nanoseconds, and its string labels.
type profSample struct {
	stack  []string
	cpuNs  int64
	labels map[string]string
}

// readProfile runs `go tool pprof -traces` on the CPU profile at path and
// parses its output. The profile is symbolized when written, so pprof is
// told not to look for the binary.
func readProfile(path string) (*profile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(string(out))
}

// parseTraces parses the text of `go tool pprof -traces -unit=ns`: a
// header, then one block per sample, each opened by a dashed separator,
// with its label lines ("key:  value"), a line holding the value and the
// innermost frame, and one line per outer frame.
func parseTraces(text string) (*profile, error) {
	if !strings.Contains(text, "\nType: cpu\n") {
		return nil, errors.New("pprof traces: not a CPU profile")
	}
	p := &profile{}
	blocks := strings.Split(text, "-----------+")
	for _, block := range blocks[1:] {
		lines := strings.Split(block, "\n")[1:] // the separator's tail
		var s profSample
		inStack := false
		for _, line := range lines {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if !inStack {
				if value, frame, ok := strings.Cut(line, "ns "); ok && isDigits(value) {
					ns, err := strconv.ParseInt(value, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
					}
					s.cpuNs, inStack = ns, true
					line = strings.TrimSpace(frame)
				} else if key, value, ok := strings.Cut(line, ":"); ok {
					if s.labels == nil {
						s.labels = map[string]string{}
					}
					s.labels[key] = strings.Trim(strings.TrimSpace(value), "[]")
					continue
				} else {
					return nil, fmt.Errorf("pprof traces: unexpected line %q", line)
				}
			}
			s.stack = append(s.stack, strings.TrimSuffix(line, " (inline)"))
		}
		if inStack {
			p.samples = append(p.samples, s)
		}
	}
	return p, nil
}

func isDigits(s string) bool {
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return s != ""
}
