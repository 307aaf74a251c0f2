//! Pareto filtering of design points on (power, latency).
//!
//! §6: "From the set of all Pareto optimal points, the designer can then
//! choose a NoC instance." The flow's batch filter ([`pareto_front`])
//! and the DSE's online front (`noc_dse::ParetoFront`) apply the one
//! dominance rule defined here.

/// Whether the point `a` dominates `b` on (power, latency), both
/// minimized: no worse on either axis and strictly better on at least
/// one. A point never dominates itself or an identical point.
pub fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// Returns the indices, ascending, of the items no other item
/// [`dominates`] under `key`, which maps an item to its (power,
/// latency) point.
///
/// Ties (identical points) all survive.
pub fn pareto_front<T>(items: &[T], key: impl Fn(&T) -> (f64, f64)) -> Vec<usize> {
    let points: Vec<(f64, f64)> = items.iter().map(key).collect();
    (0..points.len())
        .filter(|&i| !points.iter().any(|&q| dominates(q, points[i])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front(pts: &[(f64, f64)]) -> Vec<usize> {
        pareto_front(pts, |&p| p)
    }

    #[test]
    fn simple_two_objective_front() {
        let pts = vec![(1.0, 5.0), (2.0, 3.0), (4.0, 1.0), (3.0, 4.0), (5.0, 5.0)];
        assert_eq!(front(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn identical_points_all_survive() {
        let pts = vec![(1.0, 1.0), (1.0, 1.0)];
        assert!(!dominates(pts[0], pts[1]));
        assert_eq!(front(&pts).len(), 2);
    }

    #[test]
    fn empty_input_gives_empty_front() {
        assert!(front(&[]).is_empty());
    }

    #[test]
    fn front_members_are_mutually_non_dominated() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = (i * 7 % 50) as f64;
                let y = (i * 13 % 50) as f64;
                (x, y)
            })
            .collect();
        let front = front(&pts);
        for &i in &front {
            for &j in &front {
                if i == j {
                    continue;
                }
                let dom = pts[j].0 <= pts[i].0
                    && pts[j].1 <= pts[i].1
                    && (pts[j].0 < pts[i].0 || pts[j].1 < pts[i].1);
                assert!(!dom, "{j} dominates {i} inside the front");
            }
        }
    }
}
