//! 2D-mesh topology and XY dimension-order routing.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A tile position in the mesh: `x` is the column, `y` the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column, `0..width`.
    pub x: u8,
    /// Row, `0..height`.
    pub y: u8,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(x: u8, y: u8) -> Coord {
        Coord { x, y }
    }

    /// Manhattan distance to `other` — the hop count of an XY route.
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (i32::from(self.x) - i32::from(other.x)).unsigned_abs();
        let dy = (i32::from(self.y) - i32::from(other.y)).unsigned_abs();
        dx + dy
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// One of the four outgoing link directions of a mesh router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward larger `x`.
    East,
    /// Toward smaller `x`.
    West,
    /// Toward larger `y`.
    South,
    /// Toward smaller `y`.
    North,
}

impl Direction {
    /// Stable index in `0..4` for link-array addressing.
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::South => 2,
            Direction::North => 3,
        }
    }
}

/// A directed link in the mesh: the `dir`-facing output port of the router
/// at `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId {
    /// The router owning the output port.
    pub from: Coord,
    /// The port direction.
    pub dir: Direction,
}

/// The mesh topology: dimensions plus routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    width: u8,
    height: u8,
}

impl Mesh {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u8, height: u8) -> Mesh {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        Mesh { width, height }
    }

    /// Mesh width (columns).
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Number of directed links (4 output ports per router; edge ports
    /// exist in the array but are never routed through).
    pub fn links(&self) -> usize {
        self.tiles() * 4
    }

    /// Whether `c` lies inside the mesh.
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// Linear tile index of `c` (row-major).
    pub fn tile_index(&self, c: Coord) -> usize {
        assert!(self.contains(c), "coordinate {c} outside {self:?}");
        usize::from(c.y) * usize::from(self.width) + usize::from(c.x)
    }

    /// Linear index of a directed link.
    pub fn link_index(&self, link: LinkId) -> usize {
        self.tile_index(link.from) * 4 + link.dir.index()
    }

    /// The XY dimension-order route from `src` to `dst`: first along X,
    /// then along Y. Returns the sequence of directed links traversed
    /// (empty when `src == dst`).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the mesh.
    pub fn route(&self, src: Coord, dst: Coord) -> Vec<LinkId> {
        self.route_iter(src, dst).collect()
    }

    /// Allocation-free form of [`route`](Self::route): yields the directed
    /// links of the XY route one at a time. `Noc::new` walks it once per
    /// tile pair to build its route table.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the mesh.
    pub fn route_iter(&self, src: Coord, dst: Coord) -> RouteIter {
        assert!(self.contains(src), "source {src} outside mesh");
        assert!(self.contains(dst), "destination {dst} outside mesh");
        RouteIter { cur: src, dst }
    }
}

/// Iterator over the links of an XY route (see [`Mesh::route_iter`]).
#[derive(Debug, Clone)]
pub struct RouteIter {
    cur: Coord,
    dst: Coord,
}

impl Iterator for RouteIter {
    type Item = LinkId;

    fn next(&mut self) -> Option<LinkId> {
        let (cur, dst) = (self.cur, self.dst);
        if cur.x != dst.x {
            let dir = if dst.x > cur.x {
                Direction::East
            } else {
                Direction::West
            };
            self.cur.x = if dst.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            Some(LinkId { from: cur, dir })
        } else if cur.y != dst.y {
            let dir = if dst.y > cur.y {
                Direction::South
            } else {
                Direction::North
            };
            self.cur.y = if dst.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            Some(LinkId { from: cur, dir })
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cur.manhattan(self.dst) as usize;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 2)), 5);
        assert_eq!(Coord::new(3, 2).manhattan(Coord::new(0, 0)), 5);
        assert_eq!(Coord::new(1, 1).manhattan(Coord::new(1, 1)), 0);
    }

    #[test]
    fn route_length_is_manhattan_distance() {
        let mesh = Mesh::new(5, 4);
        for sx in 0..5u8 {
            for sy in 0..4u8 {
                for dx in 0..5u8 {
                    for dy in 0..4u8 {
                        let s = Coord::new(sx, sy);
                        let d = Coord::new(dx, dy);
                        assert_eq!(mesh.route(s, d).len() as u32, s.manhattan(d));
                    }
                }
            }
        }
    }

    #[test]
    fn route_goes_x_first() {
        let mesh = Mesh::new(4, 4);
        let route = mesh.route(Coord::new(0, 0), Coord::new(2, 2));
        assert_eq!(route[0].dir.index(), Direction::East.index());
        assert_eq!(route[1].dir.index(), Direction::East.index());
        assert_eq!(route[2].dir.index(), Direction::South.index());
        assert_eq!(route[3].dir.index(), Direction::South.index());
    }

    #[test]
    fn route_handles_all_directions() {
        let mesh = Mesh::new(3, 3);
        let route = mesh.route(Coord::new(2, 2), Coord::new(0, 0));
        assert!(route.iter().any(|l| l.dir == Direction::West));
        assert!(route.iter().any(|l| l.dir == Direction::North));
    }

    #[test]
    fn self_route_is_empty() {
        let mesh = Mesh::new(3, 3);
        assert!(mesh.route(Coord::new(1, 1), Coord::new(1, 1)).is_empty());
    }

    #[test]
    fn route_links_form_a_connected_path() {
        let mesh = Mesh::new(5, 5);
        let src = Coord::new(4, 0);
        let dst = Coord::new(0, 4);
        let route = mesh.route(src, dst);
        let mut cur = src;
        for link in &route {
            assert_eq!(link.from, cur);
            cur = match link.dir {
                Direction::East => Coord::new(cur.x + 1, cur.y),
                Direction::West => Coord::new(cur.x - 1, cur.y),
                Direction::South => Coord::new(cur.x, cur.y + 1),
                Direction::North => Coord::new(cur.x, cur.y - 1),
            };
            assert!(mesh.contains(cur));
        }
        assert_eq!(cur, dst);
    }

    #[test]
    fn tile_and_link_indices_are_unique() {
        let mesh = Mesh::new(4, 3);
        let mut seen = vec![false; mesh.tiles()];
        for y in 0..3u8 {
            for x in 0..4u8 {
                let idx = mesh.tile_index(Coord::new(x, y));
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert_eq!(mesh.links(), 48);
        let a = mesh.link_index(LinkId {
            from: Coord::new(0, 0),
            dir: Direction::East,
        });
        let b = mesh.link_index(LinkId {
            from: Coord::new(0, 0),
            dir: Direction::West,
        });
        assert_ne!(a, b);
        assert!(a < mesh.links() && b < mesh.links());
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn routing_outside_mesh_panics() {
        let mesh = Mesh::new(2, 2);
        mesh.route(Coord::new(0, 0), Coord::new(5, 0));
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn zero_dimension_rejected() {
        Mesh::new(0, 3);
    }
}
