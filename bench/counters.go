package bench

import (
	"khazana"
)

// counters is a cluster-wide reading of the program's own instruments
// (internal/telemetry/names.go), summed over nodes: counters by name, and
// histograms as name+"#count" and name+"#sum".
type counters map[string]float64

func readCounters(nodes []*khazana.Node) counters {
	out := make(counters)
	for _, n := range nodes {
		snap := n.Core().MetricsSnapshot()
		for _, c := range snap.Counters {
			out[c.Name] += float64(c.Value)
		}
		for _, h := range snap.Histograms {
			out[h.Name+"#count"] += float64(h.Count)
			out[h.Name+"#sum"] += float64(h.Sum)
		}
	}
	return out
}

// since returns c minus before, name by name.
func (c counters) since(before counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// count and sum return histogram name's observation count and total.
func (c counters) count(name string) float64 { return c[name+"#count"] }
func (c counters) sum(name string) float64   { return c[name+"#sum"] }

// mean returns the mean observation of histogram name, 0 when empty.
func (c counters) mean(name string) float64 { return ratio(c.sum(name), c.count(name)) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
