//! The checkers.  Each is a pure function of a repetition's output, so a
//! unit test can hand it a perturbed output and see it rejected.

use crate::adapter::{Ledger, PicOutcome};

/// Bitwise equality of two dense fields (`-0.0 != 0.0`, `NaN == NaN`).
pub fn same_bits(actual: &[f64], expected: &[f64]) -> bool {
    actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(a, e)| a.to_bits() == e.to_bits())
}

/// PIC: every particle is still there, and the run repeated the first one.
pub fn pic_ok(outcome: &PicOutcome, first: &PicOutcome, particles: usize) -> bool {
    outcome.total_particles == particles && outcome == first
}

/// Every sampled ghost cell was exchanged and holds the owner's value;
/// an empty sample set proves nothing and fails.
pub fn ghosts_ok(samples: &[(Option<f64>, f64)]) -> bool {
    !samples.is_empty()
        && samples
            .iter()
            .all(|(got, owner)| got.map(f64::to_bits) == Some(owner.to_bits()))
}

/// Checkpoint: both restores give back the saved data, the restore-into
/// result is laid out as asked, and each of the two restores read exactly
/// the bytes the one save wrote.
pub fn ckpt_ok(
    saved: &[f64],
    restored: &[f64],
    restored_into: &[f64],
    mapped: bool,
    ledger: &Ledger,
) -> bool {
    same_bits(restored, saved)
        && same_bits(restored_into, saved)
        && mapped
        && ledger.ckpt_written > 0
        && ledger.ckpt_read == 2 * ledger.ckpt_written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bits_rejects_one_flipped_bit_and_a_length_change() {
        let field = vec![0.0, 1.5, -2.25];
        assert!(same_bits(&field, &field.clone()));
        let mut flipped = field.clone();
        flipped[1] = f64::from_bits(flipped[1].to_bits() ^ 1);
        assert!(!same_bits(&flipped, &field));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&field[..2], &field));
    }

    fn outcome() -> PicOutcome {
        PicOutcome {
            total_particles: 100,
            rebalance_count: 2,
            rebalance_bytes: 64,
            per_step: vec![(30, 0, false), (28, 5, true)],
        }
    }

    #[test]
    fn pic_rejects_a_lost_particle_and_a_diverged_history() {
        assert!(pic_ok(&outcome(), &outcome(), 100));
        let mut lost = outcome();
        lost.total_particles = 99;
        assert!(!pic_ok(&lost, &outcome(), 100));
        // Conserved, but not the run the first repetition made.
        let mut diverged = outcome();
        diverged.per_step[1].1 = 6;
        assert!(!pic_ok(&diverged, &outcome(), 100));
    }

    #[test]
    fn ghosts_reject_a_stale_a_missing_and_an_empty_sample() {
        assert!(ghosts_ok(&[(Some(1.0), 1.0), (Some(-3.5), -3.5)]));
        assert!(!ghosts_ok(&[(Some(1.0), 1.0), (Some(2.0), -3.5)]));
        assert!(!ghosts_ok(&[(None, 1.0)]));
        assert!(!ghosts_ok(&[]));
    }

    #[test]
    fn ckpt_rejects_corrupt_data_a_wrong_layout_and_unbalanced_bytes() {
        let saved = vec![1.0, 2.0, 3.0];
        let ledger = Ledger {
            ckpt_written: 40,
            ckpt_read: 80,
            ..Ledger::default()
        };
        assert!(ckpt_ok(&saved, &saved, &saved, true, &ledger));
        assert!(!ckpt_ok(&saved, &[1.0, 2.0, 4.0], &saved, true, &ledger));
        assert!(!ckpt_ok(&saved, &saved, &[1.0, 2.0], true, &ledger));
        assert!(!ckpt_ok(&saved, &saved, &saved, false, &ledger));
        let short_read = Ledger {
            ckpt_read: 79,
            ..ledger
        };
        assert!(!ckpt_ok(&saved, &saved, &saved, true, &short_read));
    }
}
