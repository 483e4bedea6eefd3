package scenario

import (
	"testing"
	"time"

	"arbor/internal/testwatch"
)

func TestMain(m *testing.M) { testwatch.Main(m, 2*time.Minute) }
