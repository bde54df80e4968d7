"""The x86 island: Xen credit scheduler, domains, Dom0 and XenCtrl."""

from .cpu import PhysicalCPU
from .credit import CreditScheduler
from .guest import GuestAccounting, GuestKernel, WorkItem
from .island import DOM0_NAME, DVFS_LADDER, X86Island
from .llc import (
    MAX_BW_SHARE,
    MemoryProfile,
    MemorySystem,
    MemorySystemParams,
)
from .params import CreditParams, X86Params
from .vcpu import VCPU, Priority, VCPUState
from .vm import VirtualMachine
from .xenctrl import MAX_WEIGHT, MIN_WEIGHT, TUNE_CPU_COST, XenCtl

__all__ = [
    "CreditParams",
    "CreditScheduler",
    "DOM0_NAME",
    "DVFS_LADDER",
    "MAX_BW_SHARE",
    "MemoryProfile",
    "MemorySystem",
    "MemorySystemParams",
    "GuestAccounting",
    "GuestKernel",
    "MAX_WEIGHT",
    "MIN_WEIGHT",
    "PhysicalCPU",
    "Priority",
    "TUNE_CPU_COST",
    "VCPU",
    "VCPUState",
    "VirtualMachine",
    "WorkItem",
    "X86Island",
    "X86Params",
    "XenCtl",
]
