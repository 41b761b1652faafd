package snapea

import (
	"strings"
	"testing"
)

func validParamsJSON() string {
	return `{
		"network": "tinynet",
		"epsilon": 0.03,
		"base_accuracy": 0.9,
		"final_accuracy": 0.88,
		"predictive_layers": ["conv1"],
		"layers": {"conv1": [{"th": -0.25, "n": 4}, {"th": 0, "n": 0}]}
	}`
}

func TestParseParamsAcceptsValid(t *testing.T) {
	f, err := ParseParams([]byte(validParamsJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if f.Network != "tinynet" || len(f.Layers["conv1"]) != 2 {
		t.Fatalf("parsed wrong content: %+v", f)
	}
}

func TestParseParamsRejectsCorrupt(t *testing.T) {
	cases := map[string]struct {
		json string
		want string // substring the error must carry
	}{
		"not json":     {`{"layers"`, "parse"},
		"no layers":    {`{"epsilon": 0.03}`, "no layers"},
		"empty layer":  {`{"layers": {"conv1": []}}`, `"conv1"`},
		"negative N":   {`{"layers": {"conv1": [{"th": 0, "n": -3}]}}`, "kernel 0"},
		"oversized N":  {`{"layers": {"conv1": [{"th": 0, "n": 70000}]}}`, "oversized"},
		"ghost layer":  {`{"predictive_layers": ["conv9"], "layers": {"conv1": [{"th": 0, "n": 0}]}}`, "conv9"},
		"overflow th":  {`{"layers": {"conv1": [{"th": 1e39, "n": 0}]}}`, "parse"},
		"overflow eps": {`{"epsilon": 1e999, "layers": {"conv1": [{"th": 0, "n": 0}]}}`, "parse"},
	}
	for name, tc := range cases {
		_, err := ParseParams([]byte(tc.json))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

func TestParamsCheckAgainstModel(t *testing.T) {
	m := buildTestModel(t)
	net := CompileExact(m)
	node := net.PlanOrder[0]
	conv := net.Plans[node].Conv

	good := &ParamsFile{Layers: map[string]LayerParams{node: AllExact(conv.OutC)}}
	if err := good.Check(m); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}

	ghost := &ParamsFile{Layers: map[string]LayerParams{"no-such-conv": AllExact(4)}}
	if err := ghost.Check(m); err == nil {
		t.Fatal("params naming an absent layer accepted")
	}

	short := &ParamsFile{Layers: map[string]LayerParams{node: AllExact(conv.OutC - 1)}}
	if err := short.Check(m); err == nil {
		t.Fatal("kernel-count mismatch accepted")
	}

	big := AllExact(conv.OutC)
	big[0] = KernelParam{Th: 0, N: conv.KernelSize()} // N must stay < kernel size
	wide := &ParamsFile{Layers: map[string]LayerParams{node: big}}
	if err := wide.Check(m); err == nil {
		t.Fatal("N >= kernel size accepted")
	}
}

func TestOptimizerOutputPassesValidation(t *testing.T) {
	m, optImgs, optLabels, _, _ := pipeline(t, 29)
	net := CompileExact(m)
	res := NewOptimizer(net, m.Head, optImgs, optLabels, wideGrid(0.05)).Run()
	data, err := res.File("tinynet", 0.05).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseParams(data)
	if err != nil {
		t.Fatalf("optimizer output failed its own validation: %v", err)
	}
	if err := f.Check(m); err != nil {
		t.Fatalf("optimizer output failed the model check: %v", err)
	}
	for node, params := range res.Params {
		got := f.Layers[node]
		if len(got) != len(params) {
			t.Fatalf("%s: %d params round-tripped to %d", node, len(params), len(got))
		}
		for i := range params {
			if got[i] != params[i] {
				t.Fatalf("%s kernel %d changed in round trip: %+v vs %+v", node, i, params[i], got[i])
			}
		}
	}
}

// FuzzLoadParams feeds arbitrary bytes to the params reader: corrupt
// files must surface as errors, never panics, and accepted files must
// satisfy the invariants ParseParams promises.
func FuzzLoadParams(f *testing.F) {
	f.Add([]byte(validParamsJSON()))
	if pf, err := ParseParams([]byte(validParamsJSON())); err == nil {
		if data, err := pf.Marshal(); err == nil {
			f.Add(data) // checksummed variant of the valid seed
		}
	}
	f.Add([]byte(`{"layers": {"c": [{"th": 0, "n": 1}]}, "checksums": {"algo": "crc32c", "layers": {"c": "00000000"}}}`))
	f.Add([]byte(`{"layers": {"c": [{"th": 0, "n": 1}]}, "checksums": {"algo": "md5", "layers": {}}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"layers": {"c": [{"th": 0, "n": -1}]}}`))
	f.Add([]byte(`{"layers": {"c": [{"th": 0, "n": 999999}]}}`))
	f.Add([]byte(`{"predictive_layers": ["x"], "layers": {"c": [{"th": 0, "n": 1}]}}`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Fuzz(func(t *testing.T, in []byte) {
		pf, err := ParseParams(in)
		if err != nil {
			return
		}
		for node, params := range pf.Layers {
			if len(params) == 0 {
				t.Fatalf("accepted file has empty layer %q", node)
			}
			for i, p := range params {
				if p.N < 0 || p.N > MaxN {
					t.Fatalf("accepted file has out-of-range N=%d (%s kernel %d)", p.N, node, i)
				}
			}
		}
		for _, node := range pf.Predictive {
			if _, ok := pf.Layers[node]; !ok {
				t.Fatalf("accepted file marks absent layer %q predictive", node)
			}
		}
	})
}
