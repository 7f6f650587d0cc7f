package cliflags

import (
	"flag"
	"io"
	"testing"
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
