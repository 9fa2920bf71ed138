(** Wide-area link classes.

    Amoeba in 1989 ran "in four different countries (The Netherlands,
    England, Norway, and Germany)" behind gateways (paper §2.1, the
    MANDIS project). RPC cost depends on where the two parties sit:
    same Ethernet, same region (two LANs bridged by a gateway), or an
    international leased line.

    The type lives here, in the RPC layer, because transactions can be
    tagged with the link they ride ({!Transport.trans}'s [?link]) so a
    fault plan can target one link class — losing messages on the
    international line must not touch local traffic. *)

type t =
  | Local  (** same 10 Mbit/s Ethernet segment *)
  | Regional  (** LAN–gateway–LAN within a metro area (VU ↔ CWI) *)
  | Wide  (** international leased line, 64 kbit/s class *)

val model : t -> Net_model.t
(** The wire-cost model for one RPC across the link. [Local] is
    {!Net_model.amoeba}. *)

val classify : same_site:bool -> same_region:bool -> t

val to_string : t -> string

val of_string : string -> t option
(** Inverse of {!to_string}; also accepts ["wide"]. Used by the fault
    plan parser. *)
