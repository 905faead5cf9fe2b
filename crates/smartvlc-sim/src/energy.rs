//! Energy accounting — the paper's opening motivation, made measurable.
//!
//! "Lighting consumes around one fifth of the world's electricity […] An
//! effective way to reduce this high energy footprint is to use smart
//! lighting systems." The LED's electrical draw scales with its duty
//! cycle (PWM dimming), so the energy story of a scenario falls straight
//! out of the LED-level trace: a smart luminaire spends
//! `P_max · ∫ l(t) dt` against a dumb luminaire's `P_max · T`.

use smartvlc_link::link::TracePoint;

/// Energy summary of one scenario run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyReport {
    /// Wall-clock covered by the trace, seconds.
    pub duration_s: f64,
    /// Energy the smart luminaire consumed, joules.
    pub smart_j: f64,
    /// Energy a full-brightness (non-smart) luminaire would consume, J.
    pub always_on_j: f64,
    /// Fractional saving.
    pub saving: f64,
    /// Mean LED duty over the run.
    pub mean_duty: f64,
}

/// Integrate the LED trace of a link run into an energy report.
///
/// `led_power_w` is the luminaire's full-brightness electrical draw
/// (the paper's Philips luminaire: 4.7 W).
pub fn energy_from_trace(trace: &[TracePoint], led_power_w: f64) -> Option<EnergyReport> {
    if trace.len() < 2 {
        return None;
    }
    let mut smart_j = 0.0;
    let mut duty_integral = 0.0;
    for w in trace.windows(2) {
        let dt = w[1].t_s - w[0].t_s;
        // Trapezoid over the LED level.
        let duty = 0.5 * (w[0].led + w[1].led);
        smart_j += led_power_w * duty * dt;
        duty_integral += duty * dt;
    }
    let duration_s = trace.last()?.t_s - trace.first()?.t_s;
    let always_on_j = led_power_w * duration_s;
    Some(EnergyReport {
        duration_s,
        smart_j,
        always_on_j,
        saving: 1.0 - smart_j / always_on_j,
        mean_duty: duty_integral / duration_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t_s: f64, led: f64) -> TracePoint {
        TracePoint {
            t_s,
            ambient: 1.0 - led,
            led,
        }
    }

    #[test]
    fn constant_half_duty_saves_half() {
        let trace = vec![pt(0.0, 0.5), pt(10.0, 0.5)];
        let r = energy_from_trace(&trace, 4.7).unwrap();
        assert!((r.smart_j - 4.7 * 0.5 * 10.0).abs() < 1e-9);
        assert!((r.saving - 0.5).abs() < 1e-12);
        assert!((r.mean_duty - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trapezoid_handles_ramps() {
        // LED ramps 1.0 -> 0.0 over 10 s: mean duty 0.5.
        let trace: Vec<TracePoint> = (0..=10)
            .map(|i| pt(i as f64, 1.0 - i as f64 / 10.0))
            .collect();
        let r = energy_from_trace(&trace, 4.7).unwrap();
        assert!((r.mean_duty - 0.5).abs() < 1e-9);
        assert!((r.saving - 0.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_traces_rejected() {
        assert!(energy_from_trace(&[], 4.7).is_none());
        assert!(energy_from_trace(&[pt(0.0, 0.3)], 4.7).is_none());
    }

    #[test]
    fn dynamic_scenario_saves_energy() {
        // The blind-pull run: the LED spends most of the day below full
        // brightness, so the smart system saves what ambient provides.
        let outcome = crate::run_dynamic(smartvlc_link::SchemeKind::Amppm, Some(6.0), 5);
        let r = energy_from_trace(&outcome.report.trace, 4.7).unwrap();
        assert!(r.saving > 0.2, "saving={}", r.saving);
        assert!(r.smart_j < r.always_on_j);
        assert!(r.mean_duty > 0.0 && r.mean_duty < 1.0);
    }
}
