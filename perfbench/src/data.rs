//! Closed-form synthetic fleets.
//!
//! Every region's ranking is a pure function of `(seed, region, version)`:
//! the pipe at rank `r` is an affine permutation of `r`, and its score is
//! a strictly decreasing function of `r`. The benchmark can therefore
//! write a million-pipe fleet from a child process and still check any
//! served `/pipe`, `/top` or global `/top` body in O(k) time and O(1)
//! memory, without holding the fleet itself.

use pipefail::core::snapshot::{attributes_section, Snapshot, SnapshotFormat};
use pipefail::network::{Material, PipeId};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The model name stamped into every generated snapshot.
pub const MODEL: &str = "synthetic";

/// SplitMix64 finalizer: a bijective 64-bit mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of a tuple of words.
pub fn hash(words: &[u64]) -> u64 {
    words.iter().fold(0x5EED_u64, |h, &w| mix64(h ^ w))
}

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `words`.
    pub fn new(words: &[u64]) -> Self {
        Self(hash(words))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

fn unit_of(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Inverse of `a` modulo `n` (`gcd(a, n) == 1`).
fn mod_inverse(a: u64, n: u64) -> u64 {
    let (mut t, mut new_t) = (0i128, 1i128);
    let (mut r, mut new_r) = (i128::from(n), i128::from(a));
    while new_r != 0 {
        let q = r / new_r;
        (t, new_t) = (new_t, t - q * new_t);
        (r, new_r) = (new_r, r - q * new_r);
    }
    debug_assert_eq!(r, 1);
    t.rem_euclid(i128::from(n)) as u64
}

/// One region of a synthetic fleet at one scoring version.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region name stored in the snapshot ("Zone 3").
    pub name: String,
    /// Routing key the server derives from the name ("zone_3").
    pub key: String,
    /// Pipes in the region; ids are `0..n`.
    pub n: u32,
    family: String,
    index: u32,
    a: u64,
    b: u64,
    a_inv: u64,
    scale: f64,
    decay: f64,
    attr_seed: u64,
}

impl Region {
    /// Region `index` of fleet `family` at scoring `version`. Attributes
    /// depend only on `(seed, family, index)`: a re-scored snapshot ranks
    /// the same physical pipes differently.
    pub fn new(seed: u64, family: &str, index: u32, n: u32, version: u32) -> Self {
        let fam = hash(&family.bytes().map(u64::from).collect::<Vec<_>>());
        let mut rng = Rng::new(&[seed, fam, u64::from(index), u64::from(version)]);
        let n64 = u64::from(n);
        let a = loop {
            let a = 1 + rng.below(n64 - 1);
            if gcd(a, n64) == 1 {
                break a;
            }
        };
        let b = rng.below(n64);
        let scale = 0.5 + 0.5 * rng.unit();
        let decay = 3.0 + 5.0 * rng.unit();
        let name = format!("{} {index}", capitalize(family));
        Self {
            key: pipefail::serve::region_key(&name),
            name,
            n,
            family: family.to_string(),
            index,
            a,
            b,
            a_inv: mod_inverse(a, n64),
            scale,
            decay,
            attr_seed: hash(&[seed, fam, u64::from(index), 0xA77]),
        }
    }

    /// Pipe id at `rank` (`rank < n`).
    pub fn id_at(&self, rank: usize) -> u32 {
        ((self.a * rank as u64 + self.b) % u64::from(self.n)) as u32
    }

    /// Rank of pipe `id`, `None` when the region has no such pipe.
    pub fn rank_of(&self, id: u32) -> Option<usize> {
        if id >= self.n {
            return None;
        }
        let n = u64::from(self.n);
        let shifted = (u64::from(id) + n - self.b) % n;
        Some(((self.a_inv * shifted) % n) as usize)
    }

    /// Score at `rank`: strictly decreasing in `rank`.
    pub fn score_at(&self, rank: usize) -> f64 {
        self.scale * (-self.decay * (rank as f64 + 0.5) / f64::from(self.n)).exp()
    }

    /// Length of pipe `id` in metres.
    pub fn length_m(&self, id: u32) -> f64 {
        20.0 + 280.0 * unit_of(hash(&[self.attr_seed, u64::from(id), 1]))
    }

    /// Material index of pipe `id` into [`Material::ALL`].
    pub fn material(&self, id: u32) -> usize {
        (hash(&[self.attr_seed, u64::from(id), 2]) % Material::ALL.len() as u64) as usize
    }

    /// Laid year of pipe `id`.
    pub fn laid_year(&self, id: u32) -> i32 {
        1900 + (hash(&[self.attr_seed, u64::from(id), 3]) % 111) as i32
    }

    /// Total pipe length of the region.
    pub fn total_length_m(&self) -> f64 {
        (0..self.n).map(|id| self.length_m(id)).sum()
    }

    /// The region as a snapshot, optionally with the attribute columns.
    pub fn snapshot(&self, seed: u64, attributes: bool) -> Snapshot {
        let n = self.n as usize;
        let scores: Vec<(PipeId, f64)> = (0..n)
            .map(|r| (PipeId(self.id_at(r)), self.score_at(r)))
            .collect();
        let mut snap = Snapshot {
            model: MODEL.into(),
            region: self.name.clone(),
            seed,
            scores,
            sections: Vec::new(),
        };
        if attributes {
            let ids: Vec<u32> = (0..n).map(|r| self.id_at(r)).collect();
            snap.push_section(attributes_section(
                ids.iter().map(|&id| self.length_m(id)).collect(),
                ids.iter().map(|&id| self.material(id) as f64).collect(),
                ids.iter()
                    .map(|&id| f64::from(self.laid_year(id)))
                    .collect(),
            ));
        }
        snap
    }
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    c.next()
        .map(|f| f.to_uppercase().collect::<String>() + c.as_str())
        .unwrap_or_default()
}

/// The regions a workload serves, sorted by routing key (server order).
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Regions in routing-key order.
    pub regions: Vec<Region>,
    /// Whether snapshots carry attribute columns.
    pub attributes: bool,
}

impl Fleet {
    /// `count` regions of `n` pipes each at scoring `version`.
    pub fn new(
        seed: u64,
        family: &str,
        count: u32,
        n: u32,
        version: u32,
        attributes: bool,
    ) -> Self {
        let mut regions: Vec<Region> = (0..count)
            .map(|i| Region::new(seed, family, i, n, version))
            .collect();
        regions.sort_by(|a, b| a.key.cmp(&b.key));
        Self {
            regions,
            attributes,
        }
    }

    /// The lookup fleet: 8 regions of 125k pipes, no attributes.
    pub fn lookup(seed: u64) -> Self {
        Self::new(seed, "zone", 8, 125_000, 0, false)
    }

    /// The analytics/federated fleet at a scoring version: 2 regions of
    /// 100k pipes with attributes.
    pub fn analytics(seed: u64, version: u32) -> Self {
        Self::new(seed, "area", 2, 100_000, version, true)
    }

    /// Total network length over every region.
    pub fn total_length_m(&self) -> f64 {
        self.regions.iter().map(Region::total_length_m).sum()
    }
}

/// Where the generator leaves a workload's snapshot files.
pub struct Layout {
    /// One live `*.pfsnap` per region (the served directory).
    pub shards: PathBuf,
    /// Re-scored snapshots waiting to be rename-published, in order.
    pub pending: PathBuf,
}

impl Layout {
    /// The layout under `root`.
    pub fn under(root: &Path) -> Self {
        Self {
            shards: root.join("shards"),
            pending: root.join("pending"),
        }
    }

    /// Live snapshot path of `region`.
    pub fn live(&self, region: &Region) -> PathBuf {
        self.shards.join(format!("{}.pfsnap", region.key))
    }

    /// Pending re-scored snapshot number `k` (1-based).
    pub fn pending(&self, k: u32) -> PathBuf {
        self.pending.join(format!("{k:03}.pfsnap"))
    }
}

/// Write `fleet` (and `reloads` re-scored snapshots cycling over its
/// regions, version `k` for the `k`-th) under `root`, returning the median
/// v2 encode time per snapshot in ms. Runs in a child process so the
/// parent's memory peak never includes it.
pub fn generate(seed: u64, fleet: &Fleet, reloads: u32, root: &Path) -> std::io::Result<f64> {
    let layout = Layout::under(root);
    std::fs::create_dir_all(&layout.shards)?;
    std::fs::create_dir_all(&layout.pending)?;
    let mut encode = Vec::new();
    let mut write = |snap: &Snapshot, path: &Path| -> std::io::Result<()> {
        let t = Instant::now();
        std::hint::black_box(snap.to_bytes_v2());
        encode.push(t.elapsed().as_secs_f64() * 1e3);
        snap.save_as(path, SnapshotFormat::V2)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        // Flush now, so the kernel's writeback of these pages does not
        // land inside the measured set-up.
        std::fs::File::open(path)?.sync_all()
    };
    for region in &fleet.regions {
        write(
            &region.snapshot(seed, fleet.attributes),
            &layout.live(region),
        )?;
    }
    for k in 1..=reloads {
        let region = pending_region(seed, fleet, k);
        write(&region.snapshot(seed, fleet.attributes), &layout.pending(k))?;
    }
    Ok(crate::stats::median(&encode).unwrap_or(0.0))
}

/// The region a pending snapshot `k` re-scores (same cycling as
/// [`generate`]).
pub fn pending_target(fleet: &Fleet, k: u32) -> &Region {
    &fleet.regions[(k as usize - 1) % fleet.regions.len()]
}

/// The pending snapshot `k` as a region at its scoring version.
pub fn pending_region(seed: u64, fleet: &Fleet, k: u32) -> Region {
    let base = pending_target(fleet, k);
    Region::new(seed, &base.family, base.index, base.n, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_round_trips_and_scores_decrease() {
        let r = Region::new(7, "zone", 3, 1000, 0);
        let mut seen = vec![false; 1000];
        for rank in 0..1000 {
            let id = r.id_at(rank);
            assert!(!seen[id as usize]);
            seen[id as usize] = true;
            assert_eq!(r.rank_of(id), Some(rank));
            if rank > 0 {
                assert!(r.score_at(rank) < r.score_at(rank - 1));
            }
        }
        assert_eq!(r.rank_of(1000), None);
        assert_eq!(r.key, "zone_3");
    }

    #[test]
    fn versions_rescore_but_keep_attributes() {
        let v0 = Region::new(7, "area", 1, 500, 0);
        let v1 = Region::new(7, "area", 1, 500, 1);
        assert_ne!(v0.id_at(0), v1.id_at(0));
        assert_eq!(v0.length_m(17), v1.length_m(17));
        assert_eq!(v0.material(17), v1.material(17));
        let fleet = Fleet::analytics(7, 0);
        assert_eq!(
            pending_region(7, &fleet, 2).key,
            pending_target(&fleet, 2).key
        );
    }
}
