package analysis

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Main is the entry point of cmd/bwalint. The go command drives it:
//
//	go vet -vettool=bwalint     protocol mode: -V=full, -flags, *.cfg
//	bwalint [flags] [packages]  re-executes the line above with its args
//
// It parses flags, dispatches, and exits the process.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] [packages]\n", progname)
		fmt.Fprintf(os.Stderr, "       go vet -vettool=$(command -v %s) [flags] [packages]\n\nAnalyzers:\n", progname)
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, doc)
		}
		fs.PrintDefaults()
	}
	versionFlag := fs.String("V", "", "print version information (the go command passes -V=full)")
	flagsFlag := fs.Bool("flags", false, "print the analyzer flags in JSON (for the go command)")
	fs.Parse(os.Args[1:])

	if *versionFlag != "" {
		printVersion(progname)
		os.Exit(0)
	}
	if *flagsFlag {
		// go vet forwards only the flags listed here; the analyzers take none.
		fmt.Println("[]")
		os.Exit(0)
	}
	if args := fs.Args(); len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		RunUnit(args[0], analyzers) // exits
	}
	runVet(os.Args[1:]) // exits
}

// runVet re-executes `go vet -vettool=<this binary>` with args unchanged
// and exits with its status, so a direct bwalint run and `make lint` take
// the same path.
func runVet(args []string) {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, args...)...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		os.Exit(exit.ExitCode())
	} else if err != nil {
		fatalf("%v", err)
	}
	os.Exit(0)
}

// printVersion implements -V=full in the form the go command's build-ID
// machinery requires of a vettool ("<name> version devel ... buildID=<id>");
// hashing the executable makes rebuilt linters invalidate vet's cache.
func printVersion(progname string) {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", progname, h.Sum(nil))
}

// knownNames returns the analyzer-name set used to validate ignore
// directives.
func knownNames(analyzers []*Analyzer) map[string]bool {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return known
}
