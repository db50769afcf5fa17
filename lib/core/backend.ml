(** The storage-backend interface every database under test implements.

    The 20 benchmark operations ({!Ops}), the generator ({!Generator}),
    the verifier ({!Verify}) and the protocol driver ({!Protocol}) are
    all functors over this signature, so the paper's requirement that
    operations be "described at a conceptual level, suitable for
    transformation to different actual database management systems"
    (abstract) is realised literally: one definition, three databases.

    Conventions:
    - Operations returning nodes return OIDs (references), never copies —
      paper §6: "it is assumed to be a reference to a node and not a copy
      of the node itself".
    - [doc] identifies one test structure; several structures can coexist
      in a database (required for [seqScan], §6.4.1: the extension of
      class Node cannot be used).
    - Mutating calls must happen inside [begin_txn] … [commit]/[abort].
*)

module type S = sig
  type t

  val name : string
  (** Short backend identifier (e.g. ["memdb"]). *)

  val description : string
  (** One line: what paper-era system this models. *)

  (** {2 Transactions (R8) and cache control} *)

  val begin_txn : t -> unit
  val commit : t -> unit
  val abort : t -> unit

  val clear_caches : t -> unit
  (** Make the next operation sequence a *cold* run: drop client buffer
      pools and caches, as "close the database" (paper §6(e)).  A no-op
      for purely in-memory backends — which is itself the measured
      difference. *)

  (** {2 Node creation} *)

  val create_node : ?near:Oid.t -> t -> Schema.node_spec -> unit
  (** [near] is a physical clustering hint: place the new node close to
      an existing one.  The generator passes the 1-N parent when
      clustering along the aggregation hierarchy (paper §5.2); backends
      without physical placement ignore it.
      @raise Invalid_argument when the OID already exists. *)

  val add_child : t -> parent:Oid.t -> child:Oid.t -> unit
  (** Append to the parent's *ordered* children sequence and set the
      child's parent (1-N aggregation). *)

  val add_part : t -> whole:Oid.t -> part:Oid.t -> unit
  (** M-N aggregation. *)

  val add_children : t -> parent:Oid.t -> Oid.t array -> unit
  (** Append the whole array to the parent's ordered children sequence —
      semantically [Array.iter (add_child …)], but backends that encode
      the edge array inside the parent's record amortize it into one
      record rewrite instead of one per edge (the bulk-load path of the
      generator, which otherwise rewrites a fanout-5 parent five
      times). *)

  val add_parts : t -> whole:Oid.t -> Oid.t array -> unit
  (** Batch form of {!add_part}, same contract as {!add_children}. *)

  val add_ref :
    t -> src:Oid.t -> dst:Oid.t -> offset_from:int -> offset_to:int -> unit
  (** M-N association with attributes. *)

  (** {2 Structural modification}

      The paper's §5.2 N.B. requires that structures be mutable ("it
      should be possible to increase and decrease the number of levels,
      the fanouts, …"); the successor benchmarks (OO7) time these
      operations explicitly. *)

  val remove_child : t -> parent:Oid.t -> child:Oid.t -> unit
  (** Unlink from the ordered children sequence (the remaining sequence
      keeps its order); clears the child's parent.
      @raise Invalid_argument when the edge does not exist. *)

  val remove_part : t -> whole:Oid.t -> part:Oid.t -> unit
  (** Remove one M-N aggregation edge.
      @raise Invalid_argument when the edge does not exist. *)

  val remove_ref : t -> src:Oid.t -> dst:Oid.t -> unit
  (** Remove the first matching reference (and its inverse).
      @raise Invalid_argument when no such reference exists. *)

  val delete_node : t -> Oid.t -> unit
  (** Delete a node: detaches it from its parent, removes every M-N edge
      and reference in both directions, drops its payload and all index
      entries, and frees its storage.
      @raise Invalid_argument when the node still has children (delete
      bottom-up) or does not exist. *)

  (** {2 Attribute access} *)

  val kind : t -> Oid.t -> Schema.kind
  val unique_id : t -> Oid.t -> int
  val ten : t -> Oid.t -> int
  val hundred : t -> Oid.t -> int
  val million : t -> Oid.t -> int

  val set_hundred : t -> Oid.t -> int -> unit
  (** Used by closure1NAttSet (op 12); must maintain any index on the
      attribute. *)

  val set_dyn_attr : t -> Oid.t -> string -> int -> unit
  (** Dynamically added attribute (R4 schema-modification extension). *)

  val dyn_attr : t -> Oid.t -> string -> int option

  (** {2 Associative lookup} *)

  val lookup_unique : t -> doc:int -> int -> Oid.t option
  (** Key lookup on [uniqueId] (op 01). *)

  val range_unique : t -> doc:int -> lo:int -> hi:int -> Oid.t list

  val range_hundred : t -> doc:int -> lo:int -> hi:int -> Oid.t list
  (** Range predicate on [hundred] (op 03; 10% selectivity). *)

  val range_million : t -> doc:int -> lo:int -> hi:int -> Oid.t list
  (** Range predicate on [million] (op 04; 1% selectivity). *)

  (** {2 Relationship traversal} *)

  val prefetch_nodes : t -> Oid.t list -> unit
  (** Hint that the nodes are about to be read (e.g. the children of the
      node a closure just visited).  Disk-backed stores resolve the oids
      through the object table and fetch the backing pages as one
      batched group transfer ({!Hyper_storage.Buffer_pool.prefetch});
      in-memory backends do nothing.  A pure hint: unknown oids and
      cache-resident nodes are skipped, results of subsequent reads are
      unchanged. *)

  val children : t -> Oid.t -> Oid.t array
  (** Ordered (op 05A). *)

  val parent : t -> Oid.t -> Oid.t option
  val parts : t -> Oid.t -> Oid.t array
  val part_of : t -> Oid.t -> Oid.t array
  val refs_to : t -> Oid.t -> Schema.link array
  val refs_from : t -> Oid.t -> Schema.link array

  (** {2 Content} *)

  val text : t -> Oid.t -> string
  (** @raise Invalid_argument on a non-text node. *)

  val set_text : t -> Oid.t -> string -> unit

  val form : t -> Oid.t -> Hyper_util.Bitmap.t
  (** @raise Invalid_argument on a non-form node. *)

  val set_form : t -> Oid.t -> Hyper_util.Bitmap.t -> unit

  (** {2 Scans and result storage} *)

  val iter_doc : t -> doc:int -> (Oid.t -> unit) -> unit
  (** Visit every node of one structure (op 09), without relying on the
      class extent. *)

  val node_count : t -> doc:int -> int

  val store_result_list : t -> Oid.t list -> unit
  (** Persist a list of node references (closure results "should itself
      be storable in the database", §6). *)

  (** {2 Snapshots} *)

  val snapshot : t -> t option
  (** A consistent, fully detached read-only view of the current
      committed state, or [None] when the backend cannot produce one
      cheaply (the disk and relational engines version pages, not
      objects; the socket backend has no local state).  Must be called
      outside a transaction.  The view is a first-class backend value:
      reads on it are unaffected by later writes to the original, and
      writing to it never affects the original.  The socket server
      uses this to serve read-only snapshot sessions that never wait
      behind another session's transaction. *)

  (** {2 Introspection} *)

  val io_description : t -> string
  (** Human-readable I/O counters since the last reset. *)

  val reset_io : t -> unit
end

(** First-class backend bundled with an instance — lets callers hold
    heterogeneous backends in one collection (e.g. to verify the same
    database on every engine in a loop). *)
type instance = Instance : (module S with type t = 'a) * 'a -> instance

let instance_name (Instance ((module B), _)) = B.name

let instance_description (Instance ((module B), _)) = B.description

let instance_snapshot (Instance ((module B), b)) =
  Option.map (fun s -> Instance ((module B : S with type t = B.t), s))
    (B.snapshot b)
