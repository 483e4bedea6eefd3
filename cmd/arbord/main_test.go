package main

import (
	"testing"
	"time"

	"arbor/internal/testwatch"
)

func TestMain(m *testing.M) { testwatch.Main(m, 60*time.Second) }
