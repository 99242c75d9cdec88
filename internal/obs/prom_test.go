package obs

import (
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("dpbox.transactions").Add(9)
	r.Gauge("collector.queue_depth").Set(-2)
	h := r.Histogram("node.report_latency_us", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000) // overflow
	o := r.Odometer("budget.odometer", 2)
	o.Charge(0, 0.5)
	o.Charge(1, 0.25)
	o.Replenish()

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE dpbox_transactions counter\ndpbox_transactions 9\n",
		"# TYPE collector_queue_depth gauge\ncollector_queue_depth -2\n",
		"# TYPE node_report_latency_us histogram\n",
		"node_report_latency_us_bucket{le=\"10\"} 1\n",
		"node_report_latency_us_bucket{le=\"100\"} 2\n",
		"node_report_latency_us_bucket{le=\"+Inf\"} 3\n",
		"node_report_latency_us_sum 5055\n",
		"node_report_latency_us_count 3\n",
		"budget_odometer_micro_nats{channel=\"0\"} 500000\n",
		"budget_odometer_micro_nats{channel=\"1\"} 250000\n",
		"budget_odometer_total_micro_nats 750000\n",
		"budget_odometer_charges 2\n",
		"budget_odometer_replenishes 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	// Every line is either a comment or `name{labels} value`, and
	// every metric name sticks to the Prometheus charset.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, c := range name {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
				t.Fatalf("metric name %q contains invalid rune %q", name, c)
			}
		}
	}
}

func TestPromNameMangling(t *testing.T) {
	for in, want := range map[string]string{
		"dpbox.urng_draws": "dpbox_urng_draws",
		"9lives":           "_9lives",
		"a-b.c":            "a_b_c",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
