package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// PrometheusContentType is the Content-Type of the text exposition
// format version 0.0.4 served at /metrics.
const PrometheusContentType = "text/plain; version=0.0.4"

// promName mangles a registry metric name into the Prometheus metric
// name charset [a-zA-Z0-9_:] ('.' and anything else become '_').
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as plain
// samples, histograms as cumulative `_bucket{le=…}` series plus
// `_sum`/`_count`, and odometers as per-channel labeled series.
// Families are emitted in sorted name order, so the output is
// deterministic for a deterministic snapshot.
func WritePrometheus(w io.Writer, s Snapshot) error {
	for _, name := range sortedKeys(s.Counters) {
		n := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		n := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		n := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, bound, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			n, h.Count, n, h.Sum, n, h.Count); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Odometers) {
		o := s.Odometers[name]
		n := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s_micro_nats counter\n", n); err != nil {
			return err
		}
		for ch, spent := range o.ChannelMicroNats {
			if _, err := fmt.Fprintf(w, "%s_micro_nats{channel=\"%d\"} %d\n", n, ch, spent); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w,
			"# TYPE %s_total_micro_nats counter\n%s_total_micro_nats %d\n"+
				"# TYPE %s_charges counter\n%s_charges %d\n"+
				"# TYPE %s_replenishes counter\n%s_replenishes %d\n",
			n, n, o.TotalMicroNats, n, n, o.Charges, n, n, o.Replenishes); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
