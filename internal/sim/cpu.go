package sim

import "fmt"

// Category classifies where CPU time is spent, mirroring the columns of the
// paper's Table 4: time in host system calls, host softirq packet processing,
// guest (VM) execution, and host userspace.
type Category int

// CPU time categories.
const (
	User    Category = iota // host userspace (OVS PMD threads, DPDK)
	System                  // host kernel, system-call context
	Softirq                 // host kernel, softirq/NAPI context (XDP runs here)
	Guest                   // inside a virtual machine
	NumCategories
)

// String returns the lowercase column name used in Table 4.
func (c Category) String() string {
	switch c {
	case User:
		return "user"
	case System:
		return "system"
	case Softirq:
		return "softirq"
	case Guest:
		return "guest"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Usage is CPU consumption per category in units of a hyperthread, the same
// unit as Table 4 ("Each column reports CPU time in units of a CPU
// hyperthread").
type Usage [NumCategories]float64

// Total sums consumption across all categories.
func (u Usage) Total() float64 {
	var t float64
	for _, v := range u {
		t += v
	}
	return t
}

// String formats the usage like a Table 4 row.
func (u Usage) String() string {
	return fmt.Sprintf("system=%.1f softirq=%.1f guest=%.1f user=%.1f total=%.1f",
		u[System], u[Softirq], u[Guest], u[User], u.Total())
}

// CPU models one hardware hyperthread. Work submitted to a CPU is serialized:
// if the CPU is busy, new work queues behind it. Each completed slice of work
// is accounted to a Category so experiments can report the Table 4 breakdown.
type CPU struct {
	engine *Engine
	name   string
	freeAt Time
	busy   [NumCategories]Time
}

// Name returns the name given at creation (e.g. "pmd0", "softirq3").
func (c *CPU) Name() string { return c.name }

// Busy returns the accumulated busy time for one category.
func (c *CPU) Busy(cat Category) Time { return c.busy[cat] }

// BusyTotal returns the accumulated busy time across all categories.
func (c *CPU) BusyTotal() Time {
	var t Time
	for _, b := range c.busy {
		t += b
	}
	return t
}

// FreeAt returns the earliest virtual time at which the CPU can begin new
// work.
func (c *CPU) FreeAt() Time { return c.freeAt }

// Exec queues work of duration d in category cat. The work begins as soon as
// the CPU is free (but not before now) and done, if non-nil, runs when it
// completes. Exec returns the completion time.
func (c *CPU) Exec(cat Category, d Time, done func()) Time {
	if d < 0 {
		panic("sim: negative execution cost")
	}
	start := c.freeAt
	if now := c.engine.Now(); start < now {
		start = now
	}
	end := start + d
	c.freeAt = end
	c.busy[cat] += d
	if done != nil {
		c.engine.ScheduleAt(end, done)
	}
	return end
}

// Consume charges duration d to category cat without scheduling a completion
// callback. It is the common case inside a processing loop that strings many
// cost components together before scheduling one continuation.
func (c *CPU) Consume(cat Category, d Time) Time { return c.Exec(cat, d, nil) }

// ResetAccounting zeroes the busy counters, typically after a warm-up phase
// so that steady-state windows are measured alone.
func (c *CPU) ResetAccounting() { c.busy = [NumCategories]Time{} }
