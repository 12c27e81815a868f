//! NoC topologies: routers, links and core attachment.

use std::collections::HashMap;

/// Physical class of a link; vertical (TSV) links in 3-D stacks are short
/// and cheap (keynote slide 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// In-plane wire.
    Planar,
    /// Through-silicon via between stacked dies.
    Vertical,
}

/// An undirected router-to-router link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One endpoint.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Wire class.
    pub class: LinkClass,
}

/// A network topology: routers, undirected links, and a mapping from each
/// core to its attachment router.
///
/// ```
/// use mns_noc::topology::Topology;
/// let mesh = Topology::mesh2d(3, 3);
/// assert_eq!(mesh.routers(), 9);
/// assert_eq!(mesh.links().len(), 12);
/// assert!(mesh.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    routers: usize,
    links: Vec<Link>,
    attachment: Vec<usize>,
    adjacency: Vec<Vec<(usize, LinkClass)>>,
    /// Mesh dimensions when the topology is a regular mesh (enables XYZ
    /// routing); `None` for irregular fabrics.
    mesh_dims: Option<(usize, usize, usize)>,
}

impl Topology {
    /// Builds an irregular topology.
    ///
    /// # Panics
    ///
    /// Panics if a link endpoint or attachment is out of range, or a link
    /// is a self-loop.
    pub fn irregular(routers: usize, links: Vec<Link>, attachment: Vec<usize>) -> Self {
        Self::build(routers, links, attachment, None)
    }

    fn build(
        routers: usize,
        links: Vec<Link>,
        attachment: Vec<usize>,
        mesh_dims: Option<(usize, usize, usize)>,
    ) -> Self {
        let mut adjacency = vec![Vec::new(); routers];
        let mut seen = HashMap::new();
        for l in &links {
            assert!(l.a < routers && l.b < routers, "link endpoint out of range");
            assert!(l.a != l.b, "self-loop link");
            let key = (l.a.min(l.b), l.a.max(l.b));
            assert!(seen.insert(key, ()).is_none(), "duplicate link {key:?}");
            adjacency[l.a].push((l.b, l.class));
            adjacency[l.b].push((l.a, l.class));
        }
        for &r in &attachment {
            assert!(r < routers, "attachment router out of range");
        }
        for adj in &mut adjacency {
            adj.sort_unstable_by_key(|&(n, _)| n);
        }
        Topology {
            routers,
            links,
            attachment,
            adjacency,
            mesh_dims,
        }
    }

    /// A `w × h` 2-D mesh with one core per router.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn mesh2d(w: usize, h: usize) -> Self {
        Self::mesh3d(w, h, 1)
    }

    /// A `w × h × d` 3-D mesh; inter-layer links are [`LinkClass::Vertical`]
    /// TSVs. One core per router.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn mesh3d(w: usize, h: usize, d: usize) -> Self {
        assert!(w > 0 && h > 0 && d > 0, "mesh dimensions must be positive");
        let id = |x: usize, y: usize, z: usize| z * w * h + y * w + x;
        let mut links = Vec::new();
        for z in 0..d {
            for y in 0..h {
                for x in 0..w {
                    if x + 1 < w {
                        links.push(Link {
                            a: id(x, y, z),
                            b: id(x + 1, y, z),
                            class: LinkClass::Planar,
                        });
                    }
                    if y + 1 < h {
                        links.push(Link {
                            a: id(x, y, z),
                            b: id(x, y + 1, z),
                            class: LinkClass::Planar,
                        });
                    }
                    if z + 1 < d {
                        links.push(Link {
                            a: id(x, y, z),
                            b: id(x, y, z + 1),
                            class: LinkClass::Vertical,
                        });
                    }
                }
            }
        }
        let routers = w * h * d;
        let attachment = (0..routers).collect();
        Self::build(routers, links, attachment, Some((w, h, d)))
    }

    /// Number of routers.
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// The undirected links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Core-to-router attachment (indexed by core).
    pub fn attachment(&self) -> &[usize] {
        &self.attachment
    }

    /// Router of core `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn router_of(&self, c: usize) -> usize {
        self.attachment[c]
    }

    /// Neighbours of router `r` with link classes, ascending by id.
    pub fn neighbors(&self, r: usize) -> &[(usize, LinkClass)] {
        &self.adjacency[r]
    }

    /// Mesh dimensions if this is a regular mesh.
    pub fn mesh_dims(&self) -> Option<(usize, usize, usize)> {
        self.mesh_dims
    }

    /// Mesh coordinates of router `r`, if regular.
    pub fn mesh_coords(&self, r: usize) -> Option<(usize, usize, usize)> {
        let (w, h, _) = self.mesh_dims?;
        Some((r % w, r / w % h, r / (w * h)))
    }

    /// Whether all routers are mutually reachable.
    pub fn is_connected(&self) -> bool {
        if self.routers == 0 {
            return true;
        }
        let mut seen = vec![false; self.routers];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(r) = stack.pop() {
            for &(n, _) in &self.adjacency[r] {
                if !seen[n] {
                    seen[n] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.routers
    }

    /// A copy with the given undirected links removed (fault injection:
    /// "reliable on-chip communication" requires routing around failed
    /// wires). The result is treated as irregular — even a degraded mesh
    /// needs up\*/down\* routing, since XY routing cannot detour.
    ///
    /// Links are matched regardless of endpoint order; unknown links are
    /// ignored.
    pub fn without_links(&self, failed: &[(usize, usize)]) -> Topology {
        let norm = |a: usize, b: usize| (a.min(b), a.max(b));
        let failed_set: std::collections::HashSet<(usize, usize)> =
            failed.iter().map(|&(a, b)| norm(a, b)).collect();
        let links: Vec<Link> = self
            .links
            .iter()
            .filter(|l| !failed_set.contains(&norm(l.a, l.b)))
            .copied()
            .collect();
        Topology::irregular(self.routers, links, self.attachment.clone())
    }

    /// BFS hop distance between two routers, or `None` if disconnected.
    pub fn hop_distance(&self, from: usize, to: usize) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut dist = vec![usize::MAX; self.routers];
        dist[from] = 0;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(r) = queue.pop_front() {
            for &(n, _) in &self.adjacency[r] {
                if dist[n] == usize::MAX {
                    dist[n] = dist[r] + 1;
                    if n == to {
                        return Some(dist[n]);
                    }
                    queue.push_back(n);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh2d_shape() {
        let m = Topology::mesh2d(4, 3);
        assert_eq!(m.routers(), 12);
        // 2wh − w − h undirected links.
        assert_eq!(m.links().len(), 2 * 12 - 4 - 3);
        assert!(m.is_connected());
        assert_eq!(m.mesh_coords(7), Some((3, 1, 0)));
        let max_degree = (0..m.routers()).map(|r| m.neighbors(r).len()).max();
        assert_eq!(max_degree, Some(4));
    }

    #[test]
    fn mesh3d_has_tsvs() {
        let m = Topology::mesh3d(2, 2, 2);
        let tsvs = m
            .links()
            .iter()
            .filter(|l| l.class == LinkClass::Vertical)
            .count();
        assert_eq!(tsvs, 4);
        assert!(m.is_connected());
        assert_eq!(m.mesh_coords(5), Some((1, 0, 1)));
    }

    #[test]
    fn hop_distance_on_mesh_is_manhattan() {
        let m = Topology::mesh2d(5, 5);
        assert_eq!(m.hop_distance(0, 24), Some(8));
        assert_eq!(m.hop_distance(7, 7), Some(0));
    }

    #[test]
    fn three_d_shortens_diameter() {
        let flat = Topology::mesh2d(8, 8);
        let cube = Topology::mesh3d(4, 4, 4);
        assert_eq!(flat.routers(), cube.routers());
        assert!(cube.hop_distance(0, 63).unwrap() < flat.hop_distance(0, 63).unwrap());
    }

    #[test]
    fn irregular_validation() {
        let t = Topology::irregular(
            3,
            vec![
                Link {
                    a: 0,
                    b: 1,
                    class: LinkClass::Planar,
                },
                Link {
                    a: 1,
                    b: 2,
                    class: LinkClass::Planar,
                },
            ],
            vec![0, 1, 2, 2],
        );
        assert_eq!(t.router_of(3), 2);
        assert!(t.is_connected());
        assert_eq!(t.mesh_dims(), None);
    }

    #[test]
    fn without_links_degrades_to_irregular() {
        let m = Topology::mesh2d(3, 3);
        let degraded = m.without_links(&[(0, 1), (4, 3)]);
        assert_eq!(degraded.links().len(), m.links().len() - 2);
        assert_eq!(degraded.mesh_dims(), None, "degraded mesh is irregular");
        assert!(degraded.is_connected());
        // Unknown link ignored; endpoint order irrelevant.
        let same = m.without_links(&[(8, 0)]);
        assert_eq!(same.links().len(), m.links().len());
    }

    #[test]
    fn disconnected_detected() {
        let t = Topology::irregular(
            4,
            vec![Link {
                a: 0,
                b: 1,
                class: LinkClass::Planar,
            }],
            vec![0, 1, 2, 3],
        );
        assert!(!t.is_connected());
        assert_eq!(t.hop_distance(0, 3), None);
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_links_rejected() {
        let _ = Topology::irregular(
            2,
            vec![
                Link {
                    a: 0,
                    b: 1,
                    class: LinkClass::Planar,
                },
                Link {
                    a: 1,
                    b: 0,
                    class: LinkClass::Planar,
                },
            ],
            vec![0, 1],
        );
    }
}
