package main

import "testing"

// TestUnknownFlagFails: a mistyped flag is an error, not a silently
// started worker.
func TestUnknownFlagFails(t *testing.T) {
	if err := runMain([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestFlagWiring: every flag reaches the worker, and a bare host:port
// gains the http scheme.
func TestFlagWiring(t *testing.T) {
	w, err := newWorker([]string{"-connect", "10.0.0.5:9000", "-procs", "3", "-name", "w1", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	if w.Connect != "http://10.0.0.5:9000" || w.Procs != 3 || w.Name != "w1" || w.Logf != nil {
		t.Fatalf("worker = {Connect:%q Procs:%d Name:%q Logf set:%v}", w.Connect, w.Procs, w.Name, w.Logf != nil)
	}
	w, err = newWorker([]string{"-connect", "https://coord.example:8642"})
	if err != nil {
		t.Fatal(err)
	}
	if w.Connect != "https://coord.example:8642" || w.Name == "" || w.Logf == nil {
		t.Fatalf("defaults: Connect %q, Name %q, Logf set %v", w.Connect, w.Name, w.Logf != nil)
	}
}
