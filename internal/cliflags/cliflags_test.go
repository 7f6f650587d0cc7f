package cliflags

import (
	"flag"
	"io"
	"testing"

	"repro/internal/drift"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestLogMode(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "text"},
		{[]string{"-log=json"}, "json"},
		{[]string{"-q"}, "off"},
		{[]string{"-log=json", "-q"}, "off"}, // -q wins
	}
	for _, c := range cases {
		fs := newFS()
		l := LogFlags(fs, "quiet")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if got := l.Mode(); got != c.want {
			t.Errorf("%v: Mode() = %q, want %q", c.args, got, c.want)
		}
	}
}

func TestVerifyFlag(t *testing.T) {
	fs := newFS()
	v := VerifyFlag(fs)
	if err := fs.Parse([]string{"-verify"}); err != nil {
		t.Fatal(err)
	}
	if !*v {
		t.Error("-verify did not set the flag")
	}
}

func TestDriftFlags(t *testing.T) {
	fs := newFS()
	d := DriftFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	c := d.Config()
	if c.Window != drift.DefaultWindow || c.Ring != drift.DefaultRing {
		t.Errorf("default drift config = %+v", c)
	}
	if !c.Enabled() {
		t.Error("default drift config disabled")
	}

	fs = newFS()
	d = DriftFlags(fs)
	if err := fs.Parse([]string{"-driftwindow=8", "-driftring=32"}); err != nil {
		t.Fatal(err)
	}
	c = d.Config()
	if c.Window != 8 || c.Ring != 32 {
		t.Errorf("parsed drift config = %+v, want 8/32", c)
	}

	fs = newFS()
	d = DriftFlags(fs)
	if err := fs.Parse([]string{"-driftwindow=0"}); err != nil {
		t.Fatal(err)
	}
	if d.Config().Enabled() {
		t.Error("-driftwindow=0 did not disable drift tracking")
	}
}
