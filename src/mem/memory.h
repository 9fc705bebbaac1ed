/**
 * @file
 * Simulated GPU global memory.
 *
 * GlobalMemory is a bump-allocated arena holding the *current* (volatile)
 * contents of device memory. Typed access goes through read()/write() so
 * that a StoreObserver — the NVM cache model in src/nvm — can watch every
 * store and maintain persistency state (which bytes have reached the NVM
 * versus still sit in dirty cache lines).
 *
 * Addresses are plain byte offsets into the arena. Offset 0 is reserved
 * as a null address.
 */

#ifndef GPULP_MEM_MEMORY_H
#define GPULP_MEM_MEMORY_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/logging.h"
#include "common/zeroed_buffer.h"

namespace gpulp {

/** Device address: byte offset into the GlobalMemory arena. */
using Addr = uint64_t;

/** Reserved null device address. */
constexpr Addr kNullAddr = 0;

/**
 * Interface for components that observe memory traffic, e.g. the NVM
 * write-back cache model tracking persistency state.
 */
class MemObserver
{
  public:
    virtual ~MemObserver() = default;

    /** Called after the arena bytes [addr, addr+bytes) were updated. */
    virtual void onStore(Addr addr, size_t bytes) = 0;

    /** Called before the arena bytes [addr, addr+bytes) are read. */
    virtual void onLoad(Addr addr, size_t bytes) = 0;

    /**
     * Called when the arena is reset(): every allocation is released
     * and the used region zeroed. Persistency models drop their state
     * for the dead region (the NVM cache invalidates its lines and
     * tombstones the region's persist-log entries so a reused log file
     * does not replay stale allocations). Default: ignore.
     */
    virtual void onReset() {}
};

/**
 * The device global-memory arena.
 *
 * Allocation is bump-pointer only: workloads allocate their buffers up
 * front and reset() the arena between experiments, mirroring how the
 * benchmarks cudaMalloc everything before the timed kernel.
 */
class GlobalMemory
{
  public:
    /** Create an arena with the given capacity in bytes. */
    explicit GlobalMemory(size_t capacity_bytes);

    GlobalMemory(const GlobalMemory &) = delete;
    GlobalMemory &operator=(const GlobalMemory &) = delete;

    /**
     * Allocate a device buffer.
     *
     * @param bytes Size of the buffer.
     * @param align Alignment (power of two).
     * @return Device address of the new buffer.
     */
    Addr alloc(size_t bytes, size_t align = 256);

    /** Release every allocation and zero the used region. */
    void reset();

    /** Total capacity in bytes. */
    size_t capacity() const { return data_.size(); }

    /** Bytes allocated so far (including alignment padding). */
    size_t used() const { return next_; }

    /** Install (or clear, with nullptr) the store/load observer. */
    void setObserver(MemObserver *observer) { observer_ = observer; }

    /**
     * Typed load of a trivially copyable T at @p addr.
     *
     * Aligned accesses of power-of-two size up to 8 bytes are performed
     * with relaxed host atomics: the parallel block engine runs blocks
     * concurrently, and device code is allowed to race on words (e.g.
     * optimistic pre-check loads against another block's CAS), so word
     * accesses must be untorn at the host level.
     */
    template <typename T>
    T
    read(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        checkRange(addr, sizeof(T));
        if (observer_)
            observer_->onLoad(addr, sizeof(T));
        T value;
        if constexpr (isWordSized<T>()) {
            if (addr % sizeof(T) == 0) {
                using Word = WordFor<sizeof(T)>;
                // atomic_ref<const T> is C++26; the load itself does
                // not mutate.
                auto *p = reinterpret_cast<Word *>(
                    const_cast<char *>(data_.data() + addr));
                Word w = std::atomic_ref<Word>(*p).load(
                    std::memory_order_relaxed);
                std::memcpy(&value, &w, sizeof(T));
                return value;
            }
        }
        std::memcpy(&value, data_.data() + addr, sizeof(T));
        return value;
    }

    /** Typed store of a trivially copyable T at @p addr (see read()). */
    template <typename T>
    void
    write(Addr addr, T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        checkRange(addr, sizeof(T));
        if constexpr (isWordSized<T>()) {
            if (addr % sizeof(T) == 0) {
                using Word = WordFor<sizeof(T)>;
                Word w;
                std::memcpy(&w, &value, sizeof(T));
                auto *p = reinterpret_cast<Word *>(data_.data() + addr);
                std::atomic_ref<Word>(*p).store(w,
                                                std::memory_order_relaxed);
                if (observer_)
                    observer_->onStore(addr, sizeof(T));
                return;
            }
        }
        std::memcpy(data_.data() + addr, &value, sizeof(T));
        if (observer_)
            observer_->onStore(addr, sizeof(T));
    }

    /**
     * Copy @p len bytes at @p addr out of the arena with relaxed
     * word-atomic loads. Device stores land as relaxed host atomics
     * (see write()), so a bulk read that can run concurrently with
     * kernel execution — an NVM line write-back from a clwb or an
     * eviction — must not memcpy the arena: each word is read
     * untorn, observing either the old or the new value.
     */
    void
    copyOutAtomic(Addr addr, size_t len, void *dst) const
    {
        checkRange(addr, len);
        auto *out = static_cast<char *>(dst);
        size_t i = 0;
        for (; (addr + i) % 8 != 0 && i < len; ++i)
            atomicByteLoad(addr + i, out + i);
        for (; i + 8 <= len; i += 8) {
            auto *p = reinterpret_cast<uint64_t *>(
                const_cast<char *>(data_.data() + addr + i));
            uint64_t w =
                std::atomic_ref<uint64_t>(*p).load(std::memory_order_relaxed);
            std::memcpy(out + i, &w, 8);
        }
        for (; i < len; ++i)
            atomicByteLoad(addr + i, out + i);
    }

    /**
     * Raw pointer into the arena; bypasses the observer. Use only for
     * host-side initialization followed by an explicit persist, or for
     * verification reads.
     */
    char *raw(Addr addr) { return data_.data() + addr; }

    /** Const raw pointer into the arena; bypasses the observer. */
    const char *raw(Addr addr) const { return data_.data() + addr; }

  private:
    void
    atomicByteLoad(Addr addr, char *out) const
    {
        auto *p = reinterpret_cast<uint8_t *>(
            const_cast<char *>(data_.data() + addr));
        uint8_t b =
            std::atomic_ref<uint8_t>(*p).load(std::memory_order_relaxed);
        std::memcpy(out, &b, 1);
    }

    template <size_t Bytes>
    using WordFor = std::conditional_t<
        Bytes == 1, uint8_t,
        std::conditional_t<Bytes == 2, uint16_t,
                           std::conditional_t<Bytes == 4, uint32_t,
                                              uint64_t>>>;

    template <typename T>
    static constexpr bool
    isWordSized()
    {
        return sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 ||
               sizeof(T) == 8;
    }

    void
    checkRange(Addr addr, size_t bytes) const
    {
        GPULP_ASSERT(addr != kNullAddr, "access through null device addr");
        GPULP_ASSERT(addr + bytes <= next_,
                     "device access [%llu, +%zu) beyond allocated %zu",
                     static_cast<unsigned long long>(addr), bytes, next_);
    }

    ZeroedBuffer data_;
    size_t next_;
    MemObserver *observer_ = nullptr;
};

/**
 * Typed view over a device buffer, the unit workloads traffic in.
 *
 * Element access routes through GlobalMemory::read/write, so the NVM
 * model observes it. hostAt() bypasses observation for initialization
 * and verification.
 */
template <typename T>
class ArrayRef
{
  public:
    ArrayRef() = default;

    /** Wrap an existing allocation of @p count elements at @p base. */
    ArrayRef(GlobalMemory *mem, Addr base, size_t count)
        : mem_(mem), base_(base), count_(count)
    {
    }

    /** Allocate a fresh device array of @p count elements. */
    static ArrayRef
    allocate(GlobalMemory &mem, size_t count)
    {
        Addr base = mem.alloc(count * sizeof(T), alignof(T) < 256
                                                     ? size_t{256}
                                                     : alignof(T));
        return ArrayRef(&mem, base, count);
    }

    /** Number of elements. */
    size_t size() const { return count_; }

    /** Device address of element @p index. */
    Addr
    addrOf(size_t index) const
    {
        GPULP_ASSERT(index < count_, "ArrayRef index %zu out of %zu",
                     index, count_);
        return base_ + index * sizeof(T);
    }

    /** Device address of the first element. */
    Addr base() const { return base_; }

    /** Observed element load. */
    T get(size_t index) const { return mem_->read<T>(addrOf(index)); }

    /** Observed element store. */
    void set(size_t index, T value) { mem_->write<T>(addrOf(index), value); }

    /** Unobserved host access for initialization / verification. */
    T &
    hostAt(size_t index)
    {
        return *reinterpret_cast<T *>(mem_->raw(addrOf(index)));
    }

    /** Unobserved host read for verification. */
    const T &
    hostAt(size_t index) const
    {
        return *reinterpret_cast<const T *>(mem_->raw(addrOf(index)));
    }

    /** True if this view wraps a real allocation. */
    bool valid() const { return mem_ != nullptr && base_ != kNullAddr; }

  private:
    GlobalMemory *mem_ = nullptr;
    Addr base_ = kNullAddr;
    size_t count_ = 0;
};

} // namespace gpulp

#endif // GPULP_MEM_MEMORY_H
