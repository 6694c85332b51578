// Command psdnslint runs the internal/analysis suite (hotalloc,
// lockorder, metricname) over Go packages: the invariants neither the
// tests nor the runtime check at every site. Leaked plans, pool
// checkouts kept across steady-state calls and rank-divergent
// collective schedules are caught at run time instead (see
// internal/analysis).
//
// It speaks cmd/go's vettool protocol, so the canonical invocation is
//
//	go build -o bin/psdnslint ./cmd/psdnslint
//	go vet -vettool=$PWD/bin/psdnslint ./...
//
// Run standalone with package patterns it re-executes itself under
// go vet, so `psdnslint ./...` works too. The protocol (the -V=full
// handshake, the -flags query, and the JSON .cfg unit description)
// is implemented directly on the standard library; see
// internal/analysis for why the repo does not depend on
// golang.org/x/tools.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"

	"repro/internal/analysis"
)

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V"):
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		// No tool-specific flags: report an empty JSON flag list.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(runUnit(args[0]))
	case len(args) >= 1 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help" || args[0] == "help"):
		usage()
	default:
		os.Exit(standalone(args))
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: psdnslint [packages]\n\nanalyzers:\n")
	for _, a := range analysis.All() {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nsuppress a finding with `//psdns:allow <analyzer> <reason>` on or above its line.\n")
}

// printVersion answers cmd/go's `-V=full` handshake. The reported
// build ID doubles as vet's cache key for this tool, so it must
// change whenever the binary does: hash the executable itself.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:16])
			}
			f.Close()
		}
	}
	fmt.Printf("psdnslint version devel buildID=%s\n", id)
}

// standalone re-executes the binary through go vet so cmd/go handles
// package loading, export data, and caching.
func standalone(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdnslint: %v\n", err)
		return 2
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, args...)...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "psdnslint: %v\n", err)
		return 2
	}
	return 0
}

// config is the JSON unit description cmd/go hands a vettool, one
// compilation unit per invocation (the same schema x/tools'
// unitchecker consumes).
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdnslint: %v\n", err)
		return 1
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "psdnslint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	if cfg.VetxOutput == "" {
		fmt.Fprintf(os.Stderr, "psdnslint: %s: no VetxOutput\n", cfgPath)
		return 1
	}
	// This tool exports no facts, but cmd/go requires the facts file
	// to exist on success.
	writeVetx := func() bool {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "psdnslint: %v\n", err)
			return false
		}
		return true
	}
	if cfg.VetxOnly {
		// Dependency pass: cmd/go only wants facts, and there are none.
		if !writeVetx() {
			return 1
		}
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				if !writeVetx() {
					return 1
				}
				return 0
			}
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		files = append(files, f)
	}

	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImp.Import(path)
	})

	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
		Error:     func(error) {}, // collect via Check's return
	}
	info := analysis.NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			if !writeVetx() {
				return 1
			}
			return 0
		}
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}

	diags := analysis.Run(fset, files, pkg, info, analysis.All())
	if !writeVetx() {
		return 1
	}
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", posn, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
