//! PRU cycle-budget timing model — the quantitative version of §5.2.
//!
//! The paper walks through four ways of toggling a BBB GPIO (or clocking
//! an ADC) and why only the last is fast enough:
//!
//! 1. **Sysfs** — writing `/sys/class/gpio/.../value`: each toggle is a
//!    syscall + VFS walk, a few hundred microseconds with non-realtime
//!    jitter.
//! 2. **Mmap** — poking the GPIO registers from userspace: "around 10x"
//!    faster than sysfs per the paper, but still at the mercy of the
//!    scheduler.
//! 3. **Xenomai** — an RT-patched kernel task: "up to 50 kHz" (the paper
//!    cites its own OpenVLC work, reference \[38\]).
//! 4. **PRU** — a dedicated 200 MHz core with single-cycle I/O: toggle
//!    rates in the MHz, deterministic to the nanosecond.
//!
//! The model assigns each method a per-operation cycle/latency budget and
//! derives the achievable slot clock, which is what bounds the system
//! throughput in `tableA_platform_rates`.

/// How the CPU reaches the GPIO/ADC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessMethod {
    /// `/sys/class/gpio` file writes from Linux userspace.
    SysfsFile,
    /// Memory-mapped GPIO registers from Linux userspace.
    MmapRegisters,
    /// RT task under a Xenomai-patched kernel.
    XenomaiTask,
    /// PRU firmware bit-banging with single-cycle I/O.
    Pru,
}

impl AccessMethod {
    /// All methods, slowest first.
    pub const ALL: [AccessMethod; 4] = [
        AccessMethod::SysfsFile,
        AccessMethod::MmapRegisters,
        AccessMethod::XenomaiTask,
        AccessMethod::Pru,
    ];

    /// Human-readable name matching the paper's discussion.
    pub fn name(self) -> &'static str {
        match self {
            AccessMethod::SysfsFile => "sysfs file I/O",
            AccessMethod::MmapRegisters => "mmap'd registers",
            AccessMethod::XenomaiTask => "Xenomai RT task",
            AccessMethod::Pru => "PRU firmware",
        }
    }
}

/// The timing model for one access method on the BBB.
#[derive(Clone, Copy, Debug)]
pub struct PruTimingModel {
    /// Method being modeled.
    pub method: AccessMethod,
    /// Fixed cost per GPIO operation, nanoseconds (syscall, register
    /// write, or PRU instruction sequence).
    pub op_cost_ns: f64,
    /// OS scheduling jitter, nanoseconds RMS (zero for the PRU).
    pub jitter_ns_rms: f64,
}

impl PruTimingModel {
    /// BBB (AM335x, PRU @ 200 MHz) budgets for each method.
    pub fn bbb(method: AccessMethod) -> PruTimingModel {
        match method {
            // One toggle = open-write-close avoided, but still a syscall
            // round trip + VFS: ~150 µs on the AM335x.
            AccessMethod::SysfsFile => PruTimingModel {
                method,
                op_cost_ns: 150_000.0,
                jitter_ns_rms: 50_000.0,
            },
            // "around 10x in our test" faster than sysfs.
            AccessMethod::MmapRegisters => PruTimingModel {
                method,
                op_cost_ns: 15_000.0,
                jitter_ns_rms: 20_000.0,
            },
            // "a sampling rate of up to 50 kHz" [38] => 20 µs per op.
            AccessMethod::XenomaiTask => PruTimingModel {
                method,
                op_cost_ns: 20_000.0,
                jitter_ns_rms: 2_000.0,
            },
            // ~12 instructions per slot toggle loop at 5 ns/inst.
            AccessMethod::Pru => PruTimingModel {
                method,
                op_cost_ns: 60.0,
                jitter_ns_rms: 0.0,
            },
        }
    }

    /// Maximum reliable operation rate: ops must fit their period with
    /// 3σ of jitter margin.
    pub fn max_rate_hz(&self) -> f64 {
        1e9 / (self.op_cost_ns + 3.0 * self.jitter_ns_rms)
    }

    /// Can this method sustain the given slot clock?
    pub fn supports_hz(&self, rate_hz: f64) -> bool {
        self.max_rate_hz() >= rate_hz
    }

    /// SPI ADC sampling needs ~20 GPIO edges per 12-bit word (clock +
    /// chip-select framing); the achievable sample rate is the op rate
    /// divided by that.
    pub fn max_spi_sample_rate_hz(&self) -> f64 {
        self.max_rate_hz() / 20.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        // sysfs < mmap < xenomai < pru, each a clear step up.
        let rates: Vec<f64> = AccessMethod::ALL
            .iter()
            .map(|&m| PruTimingModel::bbb(m).max_rate_hz())
            .collect();
        for w in rates.windows(2) {
            assert!(w[1] > w[0] * 2.0, "{rates:?}");
        }
    }

    #[test]
    fn mmap_is_about_10x_sysfs() {
        // "can be used to control GPIOs at a much faster speed (around
        // 10x in our test)".
        let sysfs = PruTimingModel::bbb(AccessMethod::SysfsFile);
        let mmap = PruTimingModel::bbb(AccessMethod::MmapRegisters);
        let ratio = mmap.op_cost_ns / sysfs.op_cost_ns;
        assert!((0.05..=0.2).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn xenomai_hits_50khz_but_not_125khz() {
        // "can achieve a sampling rate of up to 50 KHz. However, this
        // speed is still far away from our target."
        let x = PruTimingModel::bbb(AccessMethod::XenomaiTask);
        assert!(x.supports_hz(38_000.0));
        assert!(!x.supports_hz(125_000.0));
    }

    #[test]
    fn only_pru_sustains_the_paper_clocks() {
        // ftx = 125 kHz at the transmitter, fs = 500 kHz at the receiver.
        for m in AccessMethod::ALL {
            let t = PruTimingModel::bbb(m);
            let ok = t.supports_hz(125_000.0) && t.max_spi_sample_rate_hz() >= 500_000.0;
            assert_eq!(ok, m == AccessMethod::Pru, "{m:?}");
        }
    }

    #[test]
    fn pru_reaches_mbps_order() {
        // "we can modulate the LED light and perform sampling at speeds in
        // the order of Mbps".
        let pru = PruTimingModel::bbb(AccessMethod::Pru);
        assert!(pru.max_rate_hz() > 1e7); // >10 MHz raw toggles
        assert!(pru.max_spi_sample_rate_hz() > 8e5); // ADS7883 territory
    }

    #[test]
    fn jitter_costs_rate() {
        let quiet = PruTimingModel {
            method: AccessMethod::MmapRegisters,
            op_cost_ns: 15_000.0,
            jitter_ns_rms: 0.0,
        };
        let noisy = PruTimingModel::bbb(AccessMethod::MmapRegisters);
        assert!(quiet.max_rate_hz() > noisy.max_rate_hz());
    }
}
