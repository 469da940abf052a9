//! Virtual machines.
//!
//! In the paper's studies every non-virtualised source server becomes one
//! virtual machine ("the input traces capture the resource demand from
//! individual virtual machines on a server"). A [`Vm`] carries identity
//! and static metadata; its time-varying demand lives in the trace crate
//! and is attached by the consolidation planner.

use std::fmt;

/// Identifier of a virtual machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// A virtual machine (static metadata).
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    /// Identifier, unique within a study.
    pub id: VmId,
    /// Human-readable name (usually the source server's name).
    pub name: String,
    /// Configured (virtual) memory in MB — the amount the hypervisor must
    /// copy on live migration. Committed demand is at most this.
    pub configured_mem_mb: f64,
}

impl Vm {
    /// Creates a VM.
    #[must_use]
    pub fn new(id: VmId, name: impl Into<String>, configured_mem_mb: f64) -> Self {
        Self {
            id,
            name: name.into(),
            configured_mem_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        assert_eq!(VmId(7).to_string(), "vm-7");
    }

    #[test]
    fn construction() {
        let vm = Vm::new(VmId(1), "bank-0001", 8192.0);
        assert_eq!(vm.name, "bank-0001");
        assert_eq!(vm.configured_mem_mb, 8192.0);
    }

    #[test]
    fn ids_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(VmId(1));
        set.insert(VmId(1));
        set.insert(VmId(2));
        assert_eq!(set.len(), 2);
        assert!(VmId(1) < VmId(2));
    }
}
