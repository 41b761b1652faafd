package cli

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"snapea/internal/metrics"
	"snapea/internal/models"
	"snapea/internal/parallel"
)

// TestWorkersFlagUnsetPreservesDefault is the regression test for the
// -workers env clobber: Apply used to call parallel.SetLimit(0) when
// the flag was not given, silently discarding a SNAPEA_WORKERS default
// (which parallel.init installs the same way SetLimit does).
func TestWorkersFlagUnsetPreservesDefault(t *testing.T) {
	defer parallel.SetLimit(0)
	parallel.SetLimit(3) // stands in for the SNAPEA_WORKERS env default

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := WorkersFlag(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := g.Apply(); got != 3 {
		t.Fatalf("Apply() = %d, want 3 (env default must survive an unset -workers)", got)
	}
	if got := parallel.Limit(); got != 3 {
		t.Fatalf("Limit() = %d, want 3", got)
	}
}

func TestWorkersFlagExplicit(t *testing.T) {
	defer parallel.SetLimit(0)
	parallel.SetLimit(3)

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := WorkersFlag(fs)
	if err := fs.Parse([]string{"-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	if got := g.Apply(); got != 2 {
		t.Fatalf("Apply() = %d, want 2", got)
	}
}

// An explicit `-workers 0` must still mean "reset to GOMAXPROCS" — the
// fix distinguishes unset from explicitly zero via flag.Visit, not by
// value.
func TestWorkersFlagExplicitZero(t *testing.T) {
	defer parallel.SetLimit(0)
	parallel.SetLimit(3)

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := WorkersFlag(fs)
	if err := fs.Parse([]string{"-workers", "0"}); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Apply(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Apply() = %d, want GOMAXPROCS (%d)", got, want)
	}
}

func TestObsFlagsNoop(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := ObsFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := g.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Enabled() {
		t.Fatal("metrics enabled without -metrics")
	}
	stop()
	stop() // idempotent
}

func TestObsFlagsMetricsJSON(t *testing.T) {
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	path := filepath.Join(t.TempDir(), "snap.json")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := ObsFlags(fs)
	if err := fs.Parse([]string{"-metrics", path}); err != nil {
		t.Fatal(err)
	}
	stop, err := g.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.Enabled() {
		t.Fatal("-metrics must enable collection")
	}
	metrics.C("test.counter", nil).Add(7)
	stop()
	stop() // must not rewrite or error

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "test.counter" && c.Value == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot missing test.counter=7: %s", data)
	}
}

func TestObsFlagsMetricsCSV(t *testing.T) {
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	path := filepath.Join(t.TempDir(), "snap.csv")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := ObsFlags(fs)
	if err := fs.Parse([]string{"-metrics", path}); err != nil {
		t.Fatal(err)
	}
	stop, err := g.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	metrics.C("test.rows", nil).Add(1)
	stop()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "test.rows") {
		t.Fatalf("CSV snapshot missing test.rows: %s", data)
	}
}

func TestObsFlagsTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.trace")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := ObsFlags(fs)
	if err := fs.Parse([]string{"-trace", path}); err != nil {
		t.Fatal(err)
	}
	stop, err := g.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("trace file is empty")
	}
}

func TestObsFlagsPprof(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := ObsFlags(fs)
	if err := fs.Parse([]string{"-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	stop, err := g.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Start printed the resolved address; exercise the handler through
	// the default mux directly, which is what the server serves.
	req, _ := http.NewRequest("GET", "/debug/pprof/cmdline", nil)
	rec := &recorder{}
	http.DefaultServeMux.ServeHTTP(rec, req)
	if rec.status != 0 && rec.status != http.StatusOK {
		t.Fatalf("pprof handler status = %d", rec.status)
	}
}

type recorder struct {
	status int
	hdr    http.Header
}

func (r *recorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = make(http.Header)
	}
	return r.hdr
}
func (r *recorder) Write(b []byte) (int, error) { return len(b), nil }
func (r *recorder) WriteHeader(code int)        { r.status = code }

func TestObsFlagsBadPprofAddr(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := ObsFlags(fs)
	if err := fs.Parse([]string{"-pprof", "not-an-addr:::"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Start("test"); err == nil {
		t.Fatal("want error for bad pprof address")
	}
}

// TestScaleFlag: -scale takes exactly "reduced" or "full", keeps its
// default when unset, and fails the parse on anything else.
func TestScaleFlag(t *testing.T) {
	for _, tc := range []struct {
		def  models.Scale
		args []string
		want models.Scale
		bad  bool
	}{
		{models.Reduced, nil, models.Reduced, false},
		{models.Full, nil, models.Full, false},
		{models.Reduced, []string{"-scale", "full"}, models.Full, false},
		{models.Full, []string{"-scale", "reduced"}, models.Reduced, false},
		{models.Reduced, []string{"-scale", "bogus"}, 0, true},
		{models.Reduced, []string{"-scale", "Full"}, 0, true},
		{models.Full, []string{"-scale", ""}, 0, true},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		var stderr strings.Builder
		fs.SetOutput(&stderr)
		scale := ScaleFlag(fs, tc.def, "model scale")
		err := fs.Parse(tc.args)
		if tc.bad {
			if err == nil || !strings.Contains(stderr.String(), "want reduced or full") {
				t.Fatalf("%q: parse error %v, stderr %q; want a refusal", tc.args, err, stderr.String())
			}
			continue
		}
		if err != nil || *scale != tc.want {
			t.Fatalf("%q (default %v): got %v, %v; want %v", tc.args, tc.def, *scale, err, tc.want)
		}
	}
}
