package fleet

import "mat2c/internal/clock"

// SetClock puts c on clk.
func SetClock(c *Coordinator, clk clock.Clock) { c.clock = clk }

// SetAgentClock puts a on clk.
func SetAgentClock(a *Agent, clk clock.Clock) { a.clock = clk }

const DeregisterBudget = deregisterBudget
