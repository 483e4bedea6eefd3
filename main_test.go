package arbor_test

import (
	"testing"
	"time"

	"arbor/internal/testwatch"
)

func TestMain(m *testing.M) { testwatch.Main(m, 30*time.Second) }
