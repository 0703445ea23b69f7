//! Resource types and vectors.
//!
//! Sec. II-B: "The resources considered in this work can be of one of
//! the following four types: CPU time from data center machines (CPU),
//! memory from data center machines (memory), input from the external
//! network of a data center (ExtNet[in]), and output to the external
//! network of a data center (ExtNet[out])."
//!
//! Quantities are measured in the paper's abstract **units**: "a generic
//! 'unit' which represents the requirement for the respective resource
//! of a fully loaded RuneScape game server (e.g. one external outward
//! network unit is equivalent to a real bandwidth value of 3 MB/s)".

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// The four resource types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceType {
    /// CPU time from data-center machines.
    Cpu,
    /// Memory from data-center machines.
    Memory,
    /// Inbound external network bandwidth.
    ExtNetIn,
    /// Outbound external network bandwidth.
    ExtNetOut,
}

impl ResourceType {
    /// All four types in declaration order.
    pub const ALL: [Self; 4] = [Self::Cpu, Self::Memory, Self::ExtNetIn, Self::ExtNetOut];

    /// Label matching the paper's table headers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Cpu => "CPU",
            Self::Memory => "Memory",
            Self::ExtNetIn => "ExtNet[in]",
            Self::ExtNetOut => "ExtNet[out]",
        }
    }
}

impl fmt::Display for ResourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A dense vector of the four resource quantities, in units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// CPU units.
    pub cpu: f64,
    /// Memory units.
    pub memory: f64,
    /// Inbound network units.
    pub ext_net_in: f64,
    /// Outbound network units.
    pub ext_net_out: f64,
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: Self = Self {
        cpu: 0.0,
        memory: 0.0,
        ext_net_in: 0.0,
        ext_net_out: 0.0,
    };

    /// Builds a vector from the four components.
    #[must_use]
    pub const fn new(cpu: f64, memory: f64, ext_net_in: f64, ext_net_out: f64) -> Self {
        Self {
            cpu,
            memory,
            ext_net_in,
            ext_net_out,
        }
    }

    /// Reads one component.
    #[must_use]
    pub fn get(&self, r: ResourceType) -> f64 {
        match r {
            ResourceType::Cpu => self.cpu,
            ResourceType::Memory => self.memory,
            ResourceType::ExtNetIn => self.ext_net_in,
            ResourceType::ExtNetOut => self.ext_net_out,
        }
    }

    /// Writes one component.
    pub fn set(&mut self, r: ResourceType, v: f64) {
        match r {
            ResourceType::Cpu => self.cpu = v,
            ResourceType::Memory => self.memory = v,
            ResourceType::ExtNetIn => self.ext_net_in = v,
            ResourceType::ExtNetOut => self.ext_net_out = v,
        }
    }

    /// Applies `f` to every component.
    #[must_use]
    pub fn map(&self, mut f: impl FnMut(ResourceType, f64) -> f64) -> Self {
        let mut out = *self;
        for r in ResourceType::ALL {
            out.set(r, f(r, self.get(r)));
        }
        out
    }

    /// Component-wise minimum.
    #[must_use]
    pub fn min(&self, other: &Self) -> Self {
        self.map(|r, v| v.min(other.get(r)))
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(&self, other: &Self) -> Self {
        self.map(|r, v| v.max(other.get(r)))
    }

    /// Clamps negatives to zero.
    #[must_use]
    pub fn clamp_non_negative(&self) -> Self {
        self.map(|_, v| v.max(0.0))
    }

    /// True when every component is ≤ the other's (within `eps`).
    #[must_use]
    pub fn fits_within(&self, other: &Self, eps: f64) -> bool {
        ResourceType::ALL
            .iter()
            .all(|&r| self.get(r) <= other.get(r) + eps)
    }

    /// True when every component is ≤ `eps` in absolute value.
    #[must_use]
    pub fn is_negligible(&self, eps: f64) -> bool {
        ResourceType::ALL.iter().all(|&r| self.get(r).abs() <= eps)
    }

    /// Sum of all components (a crude scalar size used for sorting).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.cpu + self.memory + self.ext_net_in + self.ext_net_out
    }
}

impl Add for ResourceVector {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self::new(
            self.cpu + o.cpu,
            self.memory + o.memory,
            self.ext_net_in + o.ext_net_in,
            self.ext_net_out + o.ext_net_out,
        )
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl Sub for ResourceVector {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        Self::new(
            self.cpu - o.cpu,
            self.memory - o.memory,
            self.ext_net_in - o.ext_net_in,
            self.ext_net_out - o.ext_net_out,
        )
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

impl Mul<f64> for ResourceVector {
    type Output = Self;
    fn mul(self, k: f64) -> Self {
        Self::new(
            self.cpu * k,
            self.memory * k,
            self.ext_net_in * k,
            self.ext_net_out * k,
        )
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={:.2} mem={:.2} in={:.2} out={:.2}",
            self.cpu, self.memory, self.ext_net_in, self.ext_net_out
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let mut v = ResourceVector::ZERO;
        for (i, r) in ResourceType::ALL.into_iter().enumerate() {
            v.set(r, i as f64 + 1.0);
        }
        assert_eq!(v.get(ResourceType::Cpu), 1.0);
        assert_eq!(v.get(ResourceType::Memory), 2.0);
        assert_eq!(v.get(ResourceType::ExtNetIn), 3.0);
        assert_eq!(v.get(ResourceType::ExtNetOut), 4.0);
        assert_eq!(v.total(), 10.0);
    }

    #[test]
    fn arithmetic() {
        let a = ResourceVector::new(1.0, 2.0, 3.0, 4.0);
        let b = ResourceVector::new(0.5, 0.5, 0.5, 0.5);
        assert_eq!(a + b, ResourceVector::new(1.5, 2.5, 3.5, 4.5));
        assert_eq!(a - b, ResourceVector::new(0.5, 1.5, 2.5, 3.5));
        assert_eq!(a * 2.0, ResourceVector::new(2.0, 4.0, 6.0, 8.0));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn fits_within_and_negligible() {
        let small = ResourceVector::new(1.0, 1.0, 1.0, 1.0);
        let big = ResourceVector::new(2.0, 2.0, 2.0, 2.0);
        assert!(small.fits_within(&big, 0.0));
        assert!(!big.fits_within(&small, 0.0));
        assert!(small.fits_within(&small, 0.0));
        assert!((small - small).is_negligible(1e-12));
        assert!(!small.is_negligible(0.5));
    }

    #[test]
    fn min_max_clamp() {
        let a = ResourceVector::new(1.0, -2.0, 3.0, -4.0);
        let b = ResourceVector::new(0.0, 0.0, 5.0, -5.0);
        assert_eq!(a.min(&b), ResourceVector::new(0.0, -2.0, 3.0, -5.0));
        assert_eq!(a.max(&b), ResourceVector::new(1.0, 0.0, 5.0, -4.0));
        assert_eq!(
            a.clamp_non_negative(),
            ResourceVector::new(1.0, 0.0, 3.0, 0.0)
        );
    }

    #[test]
    fn labels() {
        assert_eq!(ResourceType::ExtNetIn.to_string(), "ExtNet[in]");
        assert_eq!(ResourceType::Cpu.label(), "CPU");
        assert_eq!(ResourceType::ALL.len(), 4);
    }
}
