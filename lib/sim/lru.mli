(** Values in numbered slots, kept in order of last use: the recency
    mechanism of all three caches. Every operation is O(1), and finding
    the oldest allocates nothing. Fresh slots are handed out 1, 2, 3…;
    after that, the slot freed last is the next one reused. *)

type 'a t

val create : int -> 'a t
(** [create n] has room for [n >= 1] values before it grows (by doubling). *)

val add : 'a t -> 'a -> int
(** Store a value as the most recently used; returns its slot. *)

val get : 'a t -> int -> 'a
(** The value in a slot, which keeps its position. [get], [touch] and
    [remove] raise [Invalid_argument] on a slot not in use. *)

val touch : 'a t -> int -> unit
(** Make a slot the most recently used. *)

val remove : 'a t -> int -> unit

val oldest : 'a t -> int
(** The least recently used slot, or 0 when empty. *)

val length : 'a t -> int

val iter : ('a -> unit) -> 'a t -> unit
(** Visit the values oldest first; [f] must not change [t]. *)
