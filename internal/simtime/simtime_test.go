package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("second = %d ps", int64(Second))
	}
	if Millisecond*1000 != Second || Microsecond*1000 != Millisecond || Nanosecond*1000 != Microsecond {
		t.Fatal("unit ladder broken")
	}
}

func TestTimeArithmetic(t *testing.T) {
	var tm Time
	tm = tm.Add(3 * Second)
	if tm.Seconds() != 3 {
		t.Fatalf("Seconds() = %v", tm.Seconds())
	}
	if d := tm.Sub(Time(Second)); d != 2*Second {
		t.Fatalf("Sub = %v", d)
	}
	if !Time(1).Before(Time(2)) || !Time(2).After(Time(1)) {
		t.Fatal("Before/After broken")
	}
}

func TestStdConversions(t *testing.T) {
	if FromStd(time.Millisecond) != Millisecond {
		t.Fatal("FromStd")
	}
	if (2 * Millisecond).Std() != 2*time.Millisecond {
		t.Fatal("Std")
	}
	if FromSeconds(1.5) != Second+500*Millisecond {
		t.Fatalf("FromSeconds = %v", FromSeconds(1.5))
	}
	if AtSeconds(2).Seconds() != 2 {
		t.Fatal("AtSeconds")
	}
}

func TestCycles(t *testing.T) {
	// 1000 cycles at 1 GHz = 1 us.
	if d := Cycles(1000, 1e9); d != Microsecond {
		t.Fatalf("Cycles = %v", d)
	}
	if Cycles(0, 1e9) != 0 || Cycles(-5, 1e9) != 0 {
		t.Fatal("non-positive cycles must cost nothing")
	}
	// Rounding up: 1 cycle at 3 GHz is ceil(333.3) = 334 ps.
	if d := Cycles(1, 3e9); d != 334 {
		t.Fatalf("Cycles(1, 3GHz) = %d ps", int64(d))
	}
}

func TestTransfer(t *testing.T) {
	// 1 GB at 1 GB/s = 1 s.
	if d := Transfer(1e9, 1e9); d != Second {
		t.Fatalf("Transfer = %v", d)
	}
	if Transfer(0, 1e9) != 0 || Transfer(100, 0) != 0 {
		t.Fatal("degenerate transfers must cost nothing")
	}
}

func TestMinMaxLaterEarlier(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Fatal("Max")
	}
	if Later(Time(1), Time(2)) != 2 || Later(Time(2), Time(1)) != 2 {
		t.Fatal("Later")
	}
}

func TestString(t *testing.T) {
	cases := map[Duration]string{
		500 * Picosecond: "500ps",
		2 * Nanosecond:   "2ns",
		3 * Microsecond:  "3us",
		4 * Millisecond:  "4ms",
		5 * Second:       "5s",
		-2 * Millisecond: "-2ms",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d ps -> %q, want %q", int64(d), got, want)
		}
	}
}

func TestCyclesMonotonicProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return Cycles(x, 1e9) <= Cycles(y, 1e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferAdditiveProperty(t *testing.T) {
	// Transferring a+b bytes never beats transferring a then b (ceil makes
	// the split at most 2 ps worse, never better).
	f := func(a, b uint32) bool {
		const bw = 64e9
		whole := Transfer(int64(a)+int64(b), bw)
		split := Transfer(int64(a), bw) + Transfer(int64(b), bw)
		return whole <= split+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
