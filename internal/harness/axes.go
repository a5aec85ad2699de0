package harness

import (
	"fmt"
	"strconv"
	"strings"

	"parade/internal/hlrc"
)

// AxisError is the typed error for a malformed axis string.
type AxisError struct {
	Term   string // the offending key=values term
	Reason string
}

func (e *AxisError) Error() string {
	return fmt.Sprintf("harness: bad matrix axis %q: %s", e.Term, e.Reason)
}

// ParseMatrix parses the axis syntax: whitespace-separated
// key=value[,value...] terms, one per axis, e.g.
//
//	app=cg,md fault=all crash=1@1;1@1,1@3 policy=adaptive lanes=2
//
// Keys are app, mode, fabric, fault, crash, policy, lanes, nodes, and
// seed; omitted axes take the Matrix defaults. Crash values are
// separated by ';' because each is a parade-run schedule
// (node@barrier[,node@barrier...]). "all" selects every value of app,
// mode, fabric, fault, policy, and — per node count — the default crash
// schedules; policy "legacy" names the empty policy. Names are checked
// when the matrix is validated; ParseMatrix rejects only malformed
// syntax, with an *AxisError.
func ParseMatrix(s string) (Matrix, error) {
	var m Matrix
	seen := map[string]bool{}
	for _, term := range strings.Fields(s) {
		bad := func(format string, args ...any) (Matrix, error) {
			return Matrix{}, &AxisError{Term: term, Reason: fmt.Sprintf(format, args...)}
		}
		key, val, _ := strings.Cut(term, "=")
		if val == "" {
			return bad("want key=value[,value...]")
		}
		if seen[key] {
			return bad("axis %s given twice", key)
		}
		seen[key] = true
		sep := ","
		if key == "crash" {
			sep = ";"
		}
		vals := strings.Split(val, sep)
		for _, v := range vals {
			if v == "" {
				return bad("empty value")
			}
		}
		all := len(vals) == 1 && vals[0] == "all"
		var err error
		switch key {
		case "app":
			if !all {
				m.Apps = vals
			}
		case "mode":
			if !all {
				m.Modes = vals
			}
		case "fabric":
			m.Fabrics = vals
			if all {
				m.Fabrics = []string{"via", "tcp"}
			}
		case "fault":
			m.Faults = vals
			if all {
				m.Faults = profileNames()
			}
		case "crash":
			for i, v := range vals {
				if v == "all" {
					continue
				}
				events, err := ParseCrash(v)
				if err != nil {
					return bad("%v", err)
				}
				if len(events) == 0 {
					return bad("empty crash schedule %q", v)
				}
				vals[i] = canonicalCrash(v)
			}
			m.Crashes = vals
		case "policy":
			m.Policies = vals
			if all {
				m.Policies = hlrc.PolicyNames()
			}
			for i, v := range m.Policies {
				if v == "legacy" {
					m.Policies[i] = hlrc.PolicyLegacy
				}
			}
		case "lanes":
			m.Lanes, err = parseInts[int](vals)
		case "nodes":
			m.Nodes, err = parseInts[int](vals)
		case "seed":
			m.Seeds, err = parseInts[int64](vals)
		default:
			return bad("unknown axis %q (valid: app, mode, fabric, fault, crash, policy, lanes, nodes, seed)", key)
		}
		if err != nil {
			return bad("%v", err)
		}
	}
	return m, nil
}

func parseInts[T int | int64](vals []string) ([]T, error) {
	out := make([]T, len(vals))
	for i, v := range vals {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || int64(T(n)) != n {
			return nil, fmt.Errorf("bad integer %q", v)
		}
		out[i] = T(n)
	}
	return out, nil
}

func formatInts[T int | int64](vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = strconv.FormatInt(int64(v), 10)
	}
	return out
}

// String renders the matrix in the axis syntax ParseMatrix reads;
// default axes are omitted.
func (m Matrix) String() string {
	var terms []string
	add := func(key, sep string, vals []string) {
		if len(vals) > 0 {
			terms = append(terms, key+"="+strings.Join(vals, sep))
		}
	}
	policies := make([]string, len(m.Policies))
	for i, p := range m.Policies {
		policies[i] = p
		if p == hlrc.PolicyLegacy {
			policies[i] = "legacy"
		}
	}
	add("app", ",", m.Apps)
	add("mode", ",", m.Modes)
	add("fabric", ",", m.Fabrics)
	add("fault", ",", m.Faults)
	add("crash", ";", m.Crashes)
	add("policy", ",", policies)
	add("lanes", ",", formatInts(m.Lanes))
	add("nodes", ",", formatInts(m.Nodes))
	add("seed", ",", formatInts(m.Seeds))
	return strings.Join(terms, " ")
}
