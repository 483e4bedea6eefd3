package sim

import (
	"testing"
	"time"

	"arbor/internal/testwatch"
)

func TestMain(m *testing.M) { testwatch.Main(m, 3*time.Minute) }
