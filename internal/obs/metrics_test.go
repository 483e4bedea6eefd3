package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("test_depth", "depth")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge after Add = %v, want 2", got)
	}
}

func TestVecSeriesIdentity(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("test_kinds_total", "kinds", "kind")
	a1 := v.With("a")
	a2 := v.With("a")
	if a1 != a2 {
		t.Fatal("With must return the same series for equal labels")
	}
	a1.Inc()
	if got := a2.Value(); got != 1 {
		t.Fatalf("shared series = %d, want 1", got)
	}
}

func TestRegistryReRegistration(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("test_total", "help")
	c2 := reg.Counter("test_total", "help")
	if c1 != c2 {
		t.Fatal("re-registering the same family must return the same instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering test_total as a gauge must panic")
		}
	}()
	reg.Gauge("test_total", "help")
}

func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "")
	c.Inc()
	g := reg.Gauge("x", "")
	g.Set(1)
	h := reg.Histogram("x_seconds", "")
	h.Observe(time.Second)
	v := reg.CounterVec("x_kinds", "", "k")
	v.With("a").Inc()
	hv := reg.HistogramVec("x_durs", "", "op")
	hv.With("read").Observe(time.Millisecond)
	reg.CounterFunc("x_fn", "", func() uint64 { return 1 })
	reg.OnCollect(func() {})
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

// parsePromText validates the text exposition format line by line and
// returns the set of series names observed.
func parsePromText(t *testing.T, text string) map[string]int {
	t.Helper()
	series := make(map[string]int)
	typed := make(map[string]string)
	helped := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if helped[parts[0]] {
				t.Fatalf("duplicate HELP for %s", parts[0])
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := typed[parts[0]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[0])
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown type %q", parts[1])
			}
			typed[parts[0]] = parts[1]
			continue
		}
		// Sample line: name{labels} value  or  name value.
		rest := line
		name := rest
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			name = rest[:i]
			j := strings.IndexByte(rest, '}')
			if j < i {
				t.Fatalf("unbalanced braces in %q", line)
			}
			rest = rest[j+1:]
		} else if i := strings.IndexByte(rest, ' '); i >= 0 {
			name = rest[:i]
			rest = rest[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) != 1 {
			t.Fatalf("sample line %q must have exactly one value", line)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			if _, ok := typed[name]; !ok {
				t.Fatalf("sample %q has no TYPE header", name)
			}
		}
		series[line[:len(line)-len(rest)+0]]++
	}
	return series
}

func TestWritePrometheusValid(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("arbor_test_ops_total", "Total ops.").Add(3)
	reg.Gauge("arbor_test_depth", "Depth.").Set(1.5)
	h := reg.Histogram("arbor_test_latency_seconds", "Latency.")
	h.Observe(3 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	v := reg.CounterVec("arbor_test_kinds_total", "By kind.", "kind", "outcome")
	v.With("read", "ok").Add(2)
	v.With("write", "in doubt\\weird\"label\n").Inc()
	reg.CounterFunc("arbor_test_fn_total", "From closure.", func() uint64 { return 9 })
	var collected bool
	reg.OnCollect(func() { collected = true })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !collected {
		t.Fatal("OnCollect callback did not run at scrape time")
	}
	text := sb.String()
	series := parsePromText(t, text)

	// No duplicate series.
	for s, n := range series {
		if n > 1 {
			t.Errorf("duplicate series %q", s)
		}
	}
	for _, want := range []string{
		"arbor_test_ops_total 3",
		"arbor_test_depth 1.5",
		"arbor_test_fn_total 9",
		`arbor_test_kinds_total{kind="read",outcome="ok"} 2`,
		"arbor_test_latency_seconds_count 2",
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// Escaped label values must not break the line structure.
	if !strings.Contains(text, `in doubt\\weird\"label\n`) {
		t.Errorf("label escaping wrong:\n%s", text)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("arbor_cum_seconds", "c")
	h.Observe(time.Microsecond)     // bucket 0
	h.Observe(3 * time.Microsecond) // bucket 2
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "arbor_cum_seconds_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad bucket value in %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}
	if prev != 2 {
		t.Fatalf("+Inf bucket = %v, want 2", prev)
	}
}

// TestConcurrentScrapesConsistent: a collect callback that rebuilds a
// family (Reset, then one series per level, as the cluster's per-level
// gauges do) shows every series in every exposition, however many scrapes
// run at once: one scrape's Reset never lands in another's rendering.
func TestConcurrentScrapesConsistent(t *testing.T) {
	const levels = 8
	reg := NewRegistry()
	size := reg.GaugeVec("arbor_test_level_size", "Per level.", "level")
	reg.OnCollect(func() {
		size.Reset()
		for u := 0; u < levels; u++ {
			size.With(strconv.Itoa(u)).Set(1)
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				if n := strings.Count(sb.String(), "arbor_test_level_size{"); n != levels {
					t.Errorf("a scrape shows %d of the %d level series", n, levels)
					return
				}
			}
		}()
	}
	wg.Wait()
}
