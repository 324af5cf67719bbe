// Command docscheck keeps the documentation honest. It has two modes:
//
//	docscheck -scenarios docs/SCENARIOS.md
//	    extracts every `go run ./cmd/...` command from the file's fenced
//	    sh code blocks and executes it with a fast-run suffix appended
//	    (-messages 100 -reps 1, adapted per binary), so a cookbook
//	    command that stops parsing fails CI. A command ending in `&`
//	    (the server scenarios) is started in the background in its own
//	    process group, awaited on its -addr until the port accepts
//	    connections, and killed with its children once every command has
//	    run;
//
//	docscheck -links .
//	    walks the tree's Markdown files and verifies that every
//	    relative (intra-repo) link target exists.
//
// Both modes print the failures and exit non-zero on any.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"
)

func main() {
	scenarios := flag.String("scenarios", "", "Markdown file whose sh code blocks are executed with a fast-run suffix")
	links := flag.String("links", "", "directory whose Markdown files get their relative links checked")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-command timeout in -scenarios mode")
	flag.Parse()
	failed := false
	if *scenarios != "" {
		if err := checkScenarios(*scenarios, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			failed = true
		}
	}
	if *links != "" {
		if err := checkLinks(*links); err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			failed = true
		}
	}
	if *scenarios == "" && *links == "" {
		fmt.Fprintln(os.Stderr, "docscheck: nothing to do (pass -scenarios and/or -links)")
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// scenarioCmd is one runnable cookbook line; background commands end in
// `&` in the Markdown and stay up until the whole scenario list is done.
type scenarioCmd struct {
	line       string
	background bool
}

// extractCommands returns the `go run ./cmd/...` command lines of every
// fenced sh block, with backslash continuations joined.
func extractCommands(path string) ([]scenarioCmd, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cmds []scenarioCmd
	inBlock := false
	var cont strings.Builder
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "```sh"):
			inBlock = true
			continue
		case strings.HasPrefix(line, "```"):
			inBlock = false
			continue
		}
		if !inBlock {
			continue
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			cont.WriteString(strings.TrimSuffix(line, "\\"))
			cont.WriteString(" ")
			continue
		}
		cont.WriteString(line)
		cmd := cont.String()
		cont.Reset()
		background := false
		if strings.HasSuffix(cmd, "&") {
			background = true
			cmd = strings.TrimSpace(strings.TrimSuffix(cmd, "&"))
		}
		if strings.HasPrefix(cmd, "go run ./cmd/") {
			cmds = append(cmds, scenarioCmd{line: cmd, background: background})
		}
	}
	return cmds, sc.Err()
}

// flagValue returns the value following a flag in a command line, or "".
func flagValue(cmd, flag string) string {
	fields := strings.Fields(cmd)
	for i, f := range fields {
		if f == flag && i+1 < len(fields) {
			return fields[i+1]
		}
	}
	return ""
}

// fastSuffix returns the flag suffix that shrinks a cookbook command to a
// smoke run, per binary (hmscs-netsim also shortens its warm-up;
// hmscs-analyze binds no -messages or -reps, and hmscs-server and
// hmscs-worker have no workload at all, so none of them needs anything;
// hmscs-plan shrinks its verification budget instead of a replication
// count).
func fastSuffix(cmd string) []string {
	switch {
	case strings.Contains(cmd, "./cmd/hmscs-netsim"):
		return []string{"-messages", "100", "-warmup", "10", "-reps", "1"}
	case strings.Contains(cmd, "./cmd/hmscs-analyze"), strings.Contains(cmd, "./cmd/hmscs-server"),
		strings.Contains(cmd, "./cmd/hmscs-worker"):
		return nil
	case strings.Contains(cmd, "./cmd/hmscs-plan"):
		return []string{"-messages", "500", "-top", "1", "-max-reps", "4"}
	default:
		return []string{"-messages", "100", "-reps", "1"}
	}
}

// startBackground launches a `... &` cookbook command in its own process
// group (so the kill reaches go run's child binary too) and, when the
// command names a -addr, waits for the port to accept connections.
func startBackground(cmd scenarioCmd, timeout time.Duration) (*exec.Cmd, *bytes.Buffer, error) {
	args := append(strings.Fields(cmd.line)[1:], fastSuffix(cmd.line)...)
	c := exec.Command("go", args...)
	var out bytes.Buffer
	c.Stdout = &out
	c.Stderr = &out
	c.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := c.Start(); err != nil {
		return nil, nil, err
	}
	if addr := flagValue(cmd.line, "-addr"); addr != "" {
		deadline := time.Now().Add(timeout)
		for {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				stopBackground(c)
				return nil, nil, fmt.Errorf("%s: %s never accepted connections\n%s", cmd.line, addr, out.Bytes())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return c, &out, nil
}

// stopBackground kills a background command's whole process group and
// reaps it.
func stopBackground(c *exec.Cmd) {
	syscall.Kill(-c.Process.Pid, syscall.SIGKILL) //nolint:errcheck // the group may already be gone
	c.Wait()                                      //nolint:errcheck // a kill always reports an error
}

func checkScenarios(path string, timeout time.Duration) error {
	cmds, err := extractCommands(path)
	if err != nil {
		return err
	}
	if len(cmds) == 0 {
		return fmt.Errorf("%s: no `go run ./cmd/...` commands found", path)
	}
	fmt.Printf("docscheck: %d commands from %s\n", len(cmds), path)
	var background []*exec.Cmd
	defer func() {
		for _, c := range background {
			stopBackground(c)
		}
	}()
	var failures int
	for i, cmd := range cmds {
		if cmd.background {
			c, _, err := startBackground(cmd, timeout)
			if err != nil {
				failures++
				fmt.Printf("FAIL [%d/%d] %s &\n%v\n", i+1, len(cmds), cmd.line, err)
				continue
			}
			background = append(background, c)
			fmt.Printf("ok   [%d/%d] %s &\n", i+1, len(cmds), cmd.line)
			continue
		}
		args := append(strings.Fields(cmd.line)[1:], fastSuffix(cmd.line)...)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		out, err := exec.CommandContext(ctx, "go", args...).CombinedOutput()
		cancel()
		if err != nil {
			failures++
			fmt.Printf("FAIL [%d/%d] %s\n%s\n", i+1, len(cmds), cmd.line, out)
			continue
		}
		fmt.Printf("ok   [%d/%d] %s\n", i+1, len(cmds), cmd.line)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d scenario commands failed", failures, len(cmds))
	}
	return nil
}

var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func checkLinks(root string) error {
	var failures int
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "vendor" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				failures++
				fmt.Printf("FAIL %s: broken link %q (-> %s)\n", path, m[1], resolved)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d broken Markdown links", failures)
	}
	fmt.Println("docscheck: Markdown links ok")
	return nil
}
