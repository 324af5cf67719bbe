package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSweepClustersFast(t *testing.T) {
	var out bytes.Buffer
	err := runMain([]string{"-var", "clusters", "-ints", "2,8", "-fast"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "sweep of clusters") {
		t.Errorf("header missing:\n%s", s)
	}
	if strings.Count(s, "\n| ") < 2 {
		t.Errorf("expected 2 data rows:\n%s", s)
	}
}

func TestSweepLambdaWithSim(t *testing.T) {
	var out bytes.Buffer
	err := runMain([]string{"-var", "lambda", "-floats", "20,80", "-clusters", "4",
		"-messages", "800", "-warmup", "100", "-reps", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "20/s") || !strings.Contains(out.String(), "80/s") {
		t.Errorf("lambda rows missing:\n%s", out.String())
	}
}

func TestSweepMsgAndPortsFast(t *testing.T) {
	var out bytes.Buffer
	if err := runMain([]string{"-var", "msg", "-ints", "256,1024", "-fast"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "256B") {
		t.Error("msg rows missing")
	}
	out.Reset()
	if err := runMain([]string{"-var", "ports", "-ints", "8,24", "-fast"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "8 ports") {
		t.Error("ports rows missing")
	}
}

func TestSweepLocality(t *testing.T) {
	var out bytes.Buffer
	err := runMain([]string{"-var", "locality", "-floats", "0,0.9", "-clusters", "4",
		"-messages", "600", "-warmup", "100", "-reps", "1", "-lambda", "30"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0.90") {
		t.Errorf("locality rows missing:\n%s", out.String())
	}
}

func TestSweepErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-var", "entropy"},
		{"-var", "lambda", "-floats", "25", "-reps", "0"},
		{"-var", "clusters", "-ints", "x"},
		{"-var", "locality", "-floats", "1.5", "-clusters", "4", "-fast"},
		{"-var", "clusters", "-ints", "3"},
	} {
		if err := runMain(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
