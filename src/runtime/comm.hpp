// Rank-local communicator of the message-passing runtime ("mini-MPI").
//
// Provides the dozen routines most MPI programs need (cf. the LLNL MPI
// tutorial): blocking point-to-point send/recv with tags and wildcards, a
// barrier, and the collectives broadcast / gather / allgather / reduce /
// allreduce. All collectives are deterministic: reductions fold in rank
// order regardless of arrival order.
//
// Typed helpers require trivially copyable payloads (data moves between
// address spaces by value — CP.31). User tags must be non-negative; negative
// tags are reserved for the collectives' internal channels.
#pragma once

#include <cstring>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "runtime/world.hpp"
#include "support/require.hpp"

namespace ulba::runtime {

template <typename T>
concept BitwisePortable = std::is_trivially_copyable_v<T>;

class Comm {
 public:
  Comm(World& world, int rank);

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return world_->size(); }

  /// World-wide traffic totals (all ranks' sends, collectives included).
  /// Compare only quiescent snapshots — e.g. taken right after barrier().
  [[nodiscard]] TrafficCounters traffic() const noexcept {
    return world_->traffic();
  }

  // ---- point to point ----------------------------------------------------

  void send_bytes(int dest, int tag, std::span<const std::byte> payload);

  /// Blocks until a matching message arrives. `source`/`tag` accept
  /// kAnySource/kAnyTag; the actual envelope is returned with the payload.
  [[nodiscard]] Message recv_message(int source, int tag);

  /// Non-blocking probe-and-receive (MPI_Iprobe + recv): true and fills
  /// `out` if a matching message was already queued.
  [[nodiscard]] bool try_recv_message(int source, int tag, Message& out);

  template <BitwisePortable T>
  void send(int dest, int tag, const T& value) {
    send_bytes(dest, tag, as_bytes_of(value));
  }

  template <BitwisePortable T>
  [[nodiscard]] T recv(int source, int tag) {
    const Message m = recv_message(source, tag);
    ULBA_REQUIRE(m.payload.size() == sizeof(T),
                 "received payload size does not match the expected type");
    T value;
    std::memcpy(&value, m.payload.data(), sizeof(T));
    return value;
  }

  template <BitwisePortable T>
  void send_span(int dest, int tag, std::span<const T> values) {
    send_bytes(dest, tag,
               {reinterpret_cast<const std::byte*>(values.data()),
                values.size_bytes()});
  }

  template <BitwisePortable T>
  [[nodiscard]] std::vector<T> recv_vector(int source, int tag) {
    const Message m = recv_message(source, tag);
    ULBA_REQUIRE(m.payload.size() % sizeof(T) == 0,
                 "received payload size is not a whole number of elements");
    std::vector<T> values(m.payload.size() / sizeof(T));
    // Zero-length exchanges are legal (e.g. an empty halo message); memcpy's
    // pointer arguments are declared nonnull, so skip it outright.
    if (!m.payload.empty())
      std::memcpy(values.data(), m.payload.data(), m.payload.size());
    return values;
  }

  // ---- collectives ---------------------------------------------------------
  // Every rank of the world must call each collective the same number of
  // times (standard SPMD discipline).

  void barrier();

  template <BitwisePortable T>
  void broadcast(T& value, int root) {
    check_root(root);
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r)
        if (r != root) send_internal(r, kTagBroadcast, as_bytes_of(value));
    } else {
      const Message m = recv_internal(root, kTagBroadcast);
      ULBA_REQUIRE(m.payload.size() == sizeof(T),
                   "broadcast payload size mismatch");
      std::memcpy(&value, m.payload.data(), sizeof(T));
    }
  }

  template <BitwisePortable T>
  void broadcast_vector(std::vector<T>& values, int root) {
    check_root(root);
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r)
        if (r != root)
          send_internal(r, kTagBroadcast,
                        {reinterpret_cast<const std::byte*>(values.data()),
                         values.size() * sizeof(T)});
    } else {
      const Message m = recv_internal(root, kTagBroadcast);
      ULBA_REQUIRE(m.payload.size() % sizeof(T) == 0,
                   "broadcast payload size mismatch");
      values.resize(m.payload.size() / sizeof(T));
      if (!m.payload.empty())
        std::memcpy(values.data(), m.payload.data(), m.payload.size());
    }
  }

  /// Root receives one value per rank (in rank order); non-roots get {}.
  template <BitwisePortable T>
  [[nodiscard]] std::vector<T> gather(const T& value, int root) {
    check_root(root);
    if (rank_ != root) {
      send_internal(root, kTagGather, as_bytes_of(value));
      return {};
    }
    std::vector<T> all(static_cast<std::size_t>(size()));
    all[static_cast<std::size_t>(root)] = value;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      const Message m = recv_internal(r, kTagGather);
      ULBA_REQUIRE(m.payload.size() == sizeof(T),
                   "gather payload size mismatch");
      std::memcpy(&all[static_cast<std::size_t>(r)], m.payload.data(),
                  sizeof(T));
    }
    return all;
  }

  /// Every rank receives one value per rank, in rank order.
  template <BitwisePortable T>
  [[nodiscard]] std::vector<T> allgather(const T& value) {
    std::vector<T> all = gather(value, 0);
    broadcast_vector(all, 0);
    return all;
  }

  /// Deterministic reduction in rank order; result only valid on root.
  template <BitwisePortable T, typename Op = std::plus<T>>
  [[nodiscard]] T reduce(const T& value, int root, Op op = {}) {
    const std::vector<T> all = gather(value, root);
    if (rank_ != root) return T{};
    T acc = all[0];
    for (std::size_t i = 1; i < all.size(); ++i) acc = op(acc, all[i]);
    return acc;
  }

  /// Deterministic all-reduce (reduce at rank 0, then broadcast).
  template <BitwisePortable T, typename Op = std::plus<T>>
  [[nodiscard]] T allreduce(const T& value, Op op = {}) {
    T acc = reduce(value, 0, op);
    broadcast(acc, 0);
    return acc;
  }

 private:
  // Internal channels: collectives use negative tags so they can never match
  // user point-to-point traffic.
  static constexpr int kTagBroadcast = -2;
  static constexpr int kTagGather = -3;

  template <BitwisePortable T>
  static std::span<const std::byte> as_bytes_of(const T& value) {
    return {reinterpret_cast<const std::byte*>(&value), sizeof(T)};
  }

  void check_root(int root) const;
  void send_internal(int dest, int tag, std::span<const std::byte> payload);
  [[nodiscard]] Message recv_internal(int source, int tag);

  World* world_;
  int rank_;
};

}  // namespace ulba::runtime
