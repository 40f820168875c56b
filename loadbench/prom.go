package main

import (
	"fmt"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// exposition maps each series key (the sample line without its value) to
// the parsed series.
type exposition map[string]series

// parseExposition parses the text format the server's /metrics serves:
// `name{label="value",...} value` lines, with # comments. Label values may
// hold spaces and braces (route="POST /v1/sessions/{id}"), so the value is
// taken after the last space; the server writes no timestamps.
func parseExposition(text string) (exposition, error) {
	exp := make(exposition)
	for n, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		key := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		name, labels, err := parseKey(key)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		exp[key] = series{name: name, labels: labels, value: v}
	}
	return exp, nil
}

// parseKey splits `name{a="x",b="y"}` into the name and its labels.
func parseKey(key string) (string, map[string]string, error) {
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return key, nil, nil
	}
	if !strings.HasSuffix(key, "}") {
		return "", nil, fmt.Errorf("unterminated label set in %q", key)
	}
	labels := make(map[string]string)
	rest := key[open+1 : len(key)-1]
	for rest != "" {
		eq := strings.Index(rest, `="`)
		if eq < 0 {
			return "", nil, fmt.Errorf("malformed label in %q", key)
		}
		name := rest[:eq]
		rest = rest[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				if rest[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			return "", nil, fmt.Errorf("unterminated label value in %q", key)
		}
		labels[name] = val.String()
		rest = strings.TrimPrefix(rest[i+1:], ",")
	}
	return key[:open], labels, nil
}

// diff returns after − before for every series of after; a series absent
// from before counts from zero. Gauges come out as changes too, so read
// them from after directly.
func diff(before, after exposition) exposition {
	d := make(exposition, len(after))
	for k, s := range after {
		s.value -= before[k].value
		d[k] = s
	}
	return d
}

// sum adds the values of every series called name whose labels include
// all of match.
func (e exposition) sum(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range e {
		if s.name == name && hasLabels(s, match) {
			total += s.value
		}
	}
	return total
}

// max returns the largest value among the series called name.
func (e exposition) max(name string) float64 {
	m := 0.0
	for _, s := range e {
		if s.name == name && s.value > m {
			m = s.value
		}
	}
	return m
}

// byLabel sums the series called name per value of the label key.
func (e exposition) byLabel(name, key string) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range e {
		if s.name == name {
			out[s.labels[key]] += s.value
		}
	}
	return out
}

func hasLabels(s series, match map[string]string) bool {
	for k, v := range match {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// histMean returns the mean of a histogram family (seconds) over the series
// matching match, from the _sum and _count of a diff, with the count.
func (e exposition) histMean(name string, match map[string]string) (mean, count float64) {
	count = e.sum(name+"_count", match)
	if count == 0 {
		return 0, 0
	}
	return e.sum(name+"_sum", match) / count, count
}
