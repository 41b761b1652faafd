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
	"time"

	"snapea/internal/metrics"
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
	if g.MetricsEnabled() {
		t.Fatal("MetricsEnabled() = true with no flags")
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

// applyEnvGroups drives the env-clobber audit: every flag group a tool
// wires through ApplyEnv gets the same three-way regression — env-only
// applies, explicit flag beats env (the -workers clobber class), and a
// malformed env value is a named error, never a silent default.
var applyEnvGroups = []struct {
	name     string // flag group under audit
	env      func() map[string]string
	register func(fs *flag.FlagSet) // registers the group's flags on fs
	flagName string                 // flag exercised by the three cases
	envVal   string                 // well-formed env value for flagName
	argVal   string                 // explicit command-line value that must win
	badVal   string                 // malformed env value for flagName
	read     func(fs *flag.FlagSet) string
}{
	{
		name: "obs",
		env:  ObsEnv,
		register: func(fs *flag.FlagSet) {
			ObsFlags(fs) // the real group: audits registration and env names together
		},
		flagName: "metrics",
		envVal:   "env-metrics.json",
		argVal:   "flag-metrics.json",
		badVal:   "", // string flags parse anything; empty env is skipped, not applied
		read:     func(fs *flag.FlagSet) string { return fs.Lookup("metrics").Value.String() },
	},
	{
		name:     "serve",
		env:      ServeEnv,
		register: registerServe,
		flagName: "queue",
		envVal:   "128",
		argVal:   "16",
		badVal:   "not-a-number",
		read:     func(fs *flag.FlagSet) string { return fs.Lookup("queue").Value.String() },
	},
	{
		name:     "breaker",
		env:      ServeEnv,
		register: registerServe,
		flagName: "breaker-failures",
		envVal:   "7",
		argVal:   "3",
		badVal:   "several",
		read:     func(fs *flag.FlagSet) string { return fs.Lookup("breaker-failures").Value.String() },
	},
	{
		name: "gateway",
		env:  GatewayEnv,
		register: func(fs *flag.FlagSet) {
			fs.String("addr", "127.0.0.1:9090", "")
			fs.String("replicas", "", "")
			fs.Duration("probe-interval", 0, "")
			fs.Duration("drain-timeout", 0, "")
		},
		flagName: "probe-interval",
		envVal:   "100ms",
		argVal:   "50ms",
		badVal:   "often",
		read:     func(fs *flag.FlagSet) string { return fs.Lookup("probe-interval").Value.String() },
	},
	{
		name:     "integrity",
		env:      ServeEnv,
		register: registerServe,
		flagName: "scrub-interval",
		envVal:   "5s",
		argVal:   "2s",
		badVal:   "whenever",
		read:     func(fs *flag.FlagSet) string { return fs.Lookup("scrub-interval").Value.String() },
	},
	{
		name: "load",
		env:  LoadEnv,
		register: func(fs *flag.FlagSet) {
			fs.String("url", "http://127.0.0.1:8080", "")
			fs.Int("n", 100, "")
			fs.Int("c", 4, "")
			fs.Float64("rate", 0, "")
			fs.Int("retries", 0, "")
		},
		flagName: "rate",
		envVal:   "250.5",
		argVal:   "10",
		badVal:   "fast",
		read:     func(fs *flag.FlagSet) string { return fs.Lookup("rate").Value.String() },
	},
}

// registerServe registers every flag ServeEnv names, as snapea-serve
// does.
func registerServe(fs *flag.FlagSet) {
	fs.String("addr", "127.0.0.1:8080", "")
	fs.Int("queue", 64, "")
	fs.Duration("request-timeout", 0, "")
	fs.Duration("drain-timeout", 0, "")
	fs.Int("breaker-failures", 5, "")
	fs.Duration("scrub-interval", 30*time.Second, "")
	fs.Duration("canary-every", time.Minute, "")
	fs.Bool("require-checksums", false, "")
}

// TestApplyEnvGroups is the audit of the -workers env-clobber bug class
// across every flag group the tools wire through ApplyEnv.
func TestApplyEnvGroups(t *testing.T) {
	for _, g := range applyEnvGroups {
		g := g
		envVar := g.env()[g.flagName]
		if envVar == "" {
			t.Fatalf("%s: flag %q missing from its env table", g.name, g.flagName)
		}

		t.Run(g.name+"/env-applies-when-flag-unset", func(t *testing.T) {
			t.Setenv(envVar, g.envVal)
			fs := flag.NewFlagSet(g.name, flag.ContinueOnError)
			g.register(fs)
			if err := fs.Parse(nil); err != nil {
				t.Fatal(err)
			}
			if err := ApplyEnv(fs, g.env()); err != nil {
				t.Fatal(err)
			}
			if got := g.read(fs); got != g.envVal {
				t.Fatalf("-%s = %q after %s=%q, want env value applied", g.flagName, got, envVar, g.envVal)
			}
		})

		t.Run(g.name+"/explicit-flag-beats-env", func(t *testing.T) {
			t.Setenv(envVar, g.envVal)
			fs := flag.NewFlagSet(g.name, flag.ContinueOnError)
			g.register(fs)
			if err := fs.Parse([]string{"-" + g.flagName, g.argVal}); err != nil {
				t.Fatal(err)
			}
			if err := ApplyEnv(fs, g.env()); err != nil {
				t.Fatal(err)
			}
			want := fsValueAfterSet(t, g.register, g.flagName, g.argVal, g.read)
			if got := g.read(fs); got != want {
				t.Fatalf("-%s = %q, want explicit flag value %q to survive %s=%q",
					g.flagName, got, want, envVar, g.envVal)
			}
		})

		if g.badVal != "" {
			t.Run(g.name+"/malformed-env-is-named-error", func(t *testing.T) {
				t.Setenv(envVar, g.badVal)
				fs := flag.NewFlagSet(g.name, flag.ContinueOnError)
				fs.SetOutput(discard{})
				g.register(fs)
				if err := fs.Parse(nil); err != nil {
					t.Fatal(err)
				}
				err := ApplyEnv(fs, g.env())
				if err == nil {
					t.Fatalf("%s=%q parsed without error", envVar, g.badVal)
				}
				if !strings.Contains(err.Error(), envVar) {
					t.Fatalf("error %q does not name the offending variable %s", err, envVar)
				}
			})
		}
	}
}

// fsValueAfterSet canonicalizes an explicit flag value through the
// flag's own parser, so comparisons don't depend on string formatting
// (e.g. "3s" for a duration round-trips to "3s", not the raw input).
func fsValueAfterSet(t *testing.T, register func(fs *flag.FlagSet), name, val string, read func(fs *flag.FlagSet) string) string {
	t.Helper()
	fs := flag.NewFlagSet("canon", flag.ContinueOnError)
	register(fs)
	if err := fs.Set(name, val); err != nil {
		t.Fatal(err)
	}
	return read(fs)
}

type discard struct{}

func (discard) Write(b []byte) (int, error) { return len(b), nil }

// TestApplyEnvEmptyValueSkipped pins the empty-string rule: an env var
// that is set but empty means "no opinion", not "set to empty".
func TestApplyEnvEmptyValueSkipped(t *testing.T) {
	t.Setenv("SNAPEA_ADDR", "")
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.String("addr", "127.0.0.1:8080", "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := ApplyEnv(fs, ServeEnv()); err != nil {
		t.Fatal(err)
	}
	if got := fs.Lookup("addr").Value.String(); got != "127.0.0.1:8080" {
		t.Fatalf("-addr = %q, want built-in default kept for empty env", got)
	}
}
