package main

import (
	"testing"

	"ptgsched/internal/clitest"
)

func TestGoldenFilesAreHygienic(t *testing.T) {
	clitest.GoldenHygiene(t)
}
